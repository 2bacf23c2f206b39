(* Shared helpers over the typedtree: path flattening and normalisation over
   [Path.t] (the typedtree's fully resolved identifiers), module-alias
   resolution, binder collection, and the base-identifier peel used by the
   mutation and escape analyses.

   Rules match *resolved* paths, not spellings: dune's wrapped libraries
   route cross-module references through generated alias modules
   ([Flp.Value.t] is the recorded path for what is compiled as
   [Flp__Value.t]), and stdlib internals surface as [Stdlib__Hashtbl.t].
   [normalize] folds all of those spellings onto one canonical form so rule
   tables stay small. *)

module Iset = Set.Make (struct
  type t = Ident.t

  let compare = Ident.compare
end)

(* The base of a mutated or captured location: a locally bound identifier
   (compared by stamp, so shadowing cannot confuse the analysis) or a value
   reached through a module path (another compilation unit's state). *)
type base = Local of Ident.t | Global of string

let rec flatten_path = function
  | Path.Pident id -> Some [ Ident.name id ]
  | Path.Pdot (p, s) -> Option.map (fun segs -> segs @ [ s ]) (flatten_path p)
  | Path.Papply _ -> None
  | Path.Pextra_ty (p, _) -> flatten_path p

let strip_prefix ~prefix s =
  let lp = String.length prefix in
  if String.length s > lp && String.sub s 0 lp = prefix then
    Some (String.sub s lp (String.length s - lp))
  else None

(* Canonical segments: drop a [Stdlib] head, unfold [Stdlib__Hashtbl] into
   [Hashtbl], and merge a dune alias hop ([Flp; Value] or [Flp__; Value])
   into the underlying unit name [Flp__Value].  The merged spelling is what
   cmt module names use, so cross-file lookups key on it. *)
let normalize segs =
  match segs with
  | "Stdlib" :: (_ :: _ as rest) -> rest
  | head :: rest -> (
      match strip_prefix ~prefix:"Stdlib__" head with
      | Some tail -> tail :: rest
      | None -> segs)
  | [] -> []

(* Alternative spellings a use-site path may resolve under in the decl and
   function tables: as written, and with the first alias hop merged into a
   [Lib__Module] unit name. *)
let lookup_candidates segs =
  let segs = normalize segs in
  match segs with
  | a :: b :: rest when String.length a > 2 && String.sub a (String.length a - 2) 2 = "__"
    ->
      [ String.concat "." segs; String.concat "." ((a ^ b) :: rest) ]
  | a :: b :: rest ->
      [ String.concat "." segs; String.concat "." ((a ^ "__" ^ b) :: rest) ]
  | _ -> [ String.concat "." segs ]

let path_segs p = Option.map normalize (flatten_path p)

(* Module aliases the structure itself declares ([module U = Unix], also
   [let module U = Unix in]), keyed by ident, each mapped to its target's
   resolved segments.  The typedtree records a use of such an alias as
   [U.time]; expanding it here, rather than through [Env.normalize_path],
   keeps the parallel per-file phase free of compiler global state. *)
let rec resolve aliases = function
  | Path.Pident id when Ident.global id -> Some [ Ident.name id ]
  | Path.Pident id -> Ident.Map.find_opt id aliases
  | Path.Pdot (p, s) -> Option.map (fun segs -> segs @ [ s ]) (resolve aliases p)
  | Path.Papply _ -> None
  | Path.Pextra_ty (p, _) -> resolve aliases p

let aliases (str : Typedtree.structure) =
  let map = ref Ident.Map.empty in
  let rec peel (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_constraint (inner, _, _, _) -> peel inner
    | Typedtree.Tmod_ident (p, _) -> Some p
    | _ -> None
  in
  let add id me =
    match Option.bind (peel me) (resolve !map) with
    | Some segs -> map := Ident.Map.add id segs !map
    | None -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_binding =
        (fun self mb ->
          Option.iter (fun id -> add id mb.Typedtree.mb_expr) mb.Typedtree.mb_id;
          Tast_iterator.default_iterator.module_binding self mb);
      expr =
        (fun self e ->
          (match e.Typedtree.exp_desc with
          | Typedtree.Texp_letmodule (Some id, _, _, me, _) -> add id me
          | _ -> ());
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str;
  !map

(* The canonical segments a use-site path names, aliases expanded.  [None]
   when its head is a module or value the file binds itself: a user
   [module Random] or [let ( == )] shadows the stdlib name, so it must not
   match a stdlib table. *)
let resolved_segs aliases p = Option.map normalize (resolve aliases p)

(* The last [n] segments of a normalized path — rule tables match on
   suffixes so local aliases ([module A = Atomic]) still resolve. *)
let last_segs n segs =
  let len = List.length segs in
  if len <= n then segs else List.filteri (fun i _ -> i >= len - n) segs

(* Peel field projections and derefs down to the root identifier:
   [t.slot.cells.(i)] and [!r] both mutate state reachable from their root.
   [None] for anything without a stable root (function results, literals). *)
let rec base_of (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (Path.Pident id, _, _) -> Some (Local id)
  | Typedtree.Texp_ident (p, _, _) -> Some (Global (Path.name p))
  | Typedtree.Texp_field (b, _, _) -> base_of b
  | Typedtree.Texp_apply (f, [ (_, Some arg) ]) -> (
      match f.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _)
        when (match path_segs p with Some s -> last_segs 1 s = [ "!" ] | None -> false) ->
          base_of arg
      | _ -> None)
  | _ -> None

(* Every identifier bound by a pattern anywhere under [e]: function
   parameters, let bindings, match cases — the "defined inside" set that
   separates private state from captured state.  Stamps make this exact. *)
let binders_under (e : Typedtree.expression) =
  let acc = ref Iset.empty in
  let pat : type k. Tast_iterator.iterator -> k Typedtree.general_pattern -> unit =
   fun self p ->
    (match p.Typedtree.pat_desc with
    | Typedtree.Tpat_var (id, _) -> acc := Iset.add id !acc
    | Typedtree.Tpat_alias (_, id, _) -> acc := Iset.add id !acc
    | _ -> ());
    Tast_iterator.default_iterator.pat self p
  in
  let it = { Tast_iterator.default_iterator with pat } in
  it.expr it e;
  !acc

(* Apply [f] to every expression in the structure (prefix order). *)
let iter_exprs (str : Typedtree.structure) f =
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          f e;
          Tast_iterator.default_iterator.expr self e);
    }
  in
  it.structure it str

(* Typed findings carry the *scanned* path, not the cmt's recorded one: the
   same cmt serves audits launched from the checkout root ("lib/flp/zoo.ml")
   and from _build ("../lib/flp/zoo.ml"), and the report must echo whichever
   spelling the run was given. *)
let finding (rule : Rule.t) ~file ~(loc : Location.t) message =
  Finding.v ~rule:rule.Rule.name ~severity:rule.Rule.severity ~file
    ~line:loc.loc_start.Lexing.pos_lnum
    ~col:(loc.loc_start.Lexing.pos_cnum - loc.loc_start.Lexing.pos_bol)
    ~message ~hint:rule.Rule.hint
