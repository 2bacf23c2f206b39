(* The rule implementations, over the typedtree a cmt records.  They see
   resolved paths and instantiated types, so they prove instead of guess:

   - the name rules (unordered-iteration, physical-equality, ambient-time,
     ambient-random, marshal, atomic-read-modify-write) match each
     identifier's resolved path with the file's own module aliases expanded
     (Tast.resolved_segs), so [module U = Unix] and [open Hashtbl] are seen
     through while a user [module Random] or [let ( == )] is not mistaken
     for the stdlib's;
   - poly-compare: classify the comparison's instantiated type (Tysafe) and
     report only real or undecidable unsafety.  [Stdlib.compare] is held to
     the strict standard (undecidable is a finding: an unannotated alias
     stays generalised at ['a], which is exactly the "prove me" case), while
     the [=]/ordering family reports only proved unsafety — legitimately
     polymorphic helpers instantiate those at type variables all over any
     functor-heavy tree.
   - unguarded-shared-mutation: an escape analysis over per-function effect
     summaries (Effects), interprocedural through the cmt index, with the
     lockset classifier deciding guardedness.
   - purity-contract: [@detlint.pure] bindings are checked — transitively —
     for mutation of non-local state and ambient-effect calls.

   Soundness caveats (also in DESIGN §5): interprocedural means "within the
   indexed cmt set"; calls that leave it (stdlib helpers beyond the effect
   tables, C stubs) are assumed effect-free.  Effects on arguments propagate
   only through bare-identifier argument positions; a mutation of a value
   threaded through a tuple or a partial application is not re-attributed to
   the caller.  Sequencing inside one body is source order, not a
   happens-before proof. *)

let sort_findings = List.stable_sort Finding.compare

let base_name = function Tast.Local id -> Ident.name id | Tast.Global s -> s

let base_key = function Tast.Local id -> "L:" ^ Ident.unique_name id | Tast.Global s -> "G:" ^ s

(* --- name rules ----------------------------------------------------------- *)

(* One finding per identifier whose resolved path [classify] names. *)
let ident_rule rule classify ~aliases (src : Typed.source) =
  let acc = ref [] in
  Tast.iter_exprs src.Typed.str (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
          match Option.bind (Tast.resolved_segs aliases p) classify with
          | Some m ->
              acc := Tast.finding rule ~file:src.Typed.file.Source.path ~loc:e.exp_loc m :: !acc
          | None -> ())
      | _ -> ());
  List.rev !acc

let dotted = String.concat "."

let unordered_iteration =
  ident_rule Rule.unordered_iteration (function
    | [ "Hashtbl"; ("iter" | "fold" | "to_seq" | "to_seq_keys" | "to_seq_values") ] as p ->
        Some
          (Printf.sprintf
             "%s enumerates in unspecified bucket order; anything built from the \
              raw order is schedule-dependent"
             (dotted p))
    | [ "Sys"; "readdir" ] ->
        Some
          "Sys.readdir returns entries in unspecified filesystem order; sort before \
           the order can escape"
    | _ -> None)

let physical_equality =
  ident_rule Rule.physical_equality (function
    | [ "==" ] -> Some "(==) is physical equality: allocation- and sharing-dependent"
    | [ "!=" ] -> Some "(!=) is physical inequality: allocation- and sharing-dependent"
    | _ -> None)

(* The three ambient rules read Effects' table, so they flag exactly the
   names purity-contract counts as that kind of ambient effect. *)
let ambient_rule rule kind message =
  ident_rule rule (fun segs ->
      match Effects.ambient_of segs with
      | Some (k, _) when k = kind -> Some (Printf.sprintf message (dotted segs))
      | _ -> None)

let ambient_time =
  ambient_rule Rule.ambient_time Effects.Wall_clock
    "%s reads the ambient wall clock; results become host- and load-dependent"

let ambient_random =
  ambient_rule Rule.ambient_random Effects.Stdlib_random
    "%s draws from the ambient stdlib Random state, invisible to the replay seed"

let marshal =
  ambient_rule Rule.marshal Effects.Marshal_bytes
    "%s bytes are not stable across runs or compiler versions; use the typed \
     Flp_json tree"

(* [Atomic.set a v] where [v] reads [Atomic.get a] of the same path (the
   same binding, by stamp — not merely the same name). *)
let atomic_rmw ~aliases (src : Typed.source) =
  let rule = Rule.atomic_rmw in
  let is segs (f : Typedtree.expression) =
    match f.Typedtree.exp_desc with
    | Typedtree.Texp_ident (p, _, _) -> (
        match Tast.resolved_segs aliases p with
        | Some s -> List.equal String.equal s segs
        | None -> false)
    | _ -> false
  in
  let ident_path (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with Typedtree.Texp_ident (p, _, _) -> Some p | _ -> None
  in
  let reads_back target (v : Typedtree.expression) =
    let found = ref false in
    let it =
      {
        Tast_iterator.default_iterator with
        expr =
          (fun self e ->
            (match e.Typedtree.exp_desc with
            | Typedtree.Texp_apply (g, (Asttypes.Nolabel, Some a) :: _)
              when is [ "Atomic"; "get" ] g -> (
                match ident_path a with
                | Some p when Path.same p target -> found := true
                | _ -> ())
            | _ -> ());
            Tast_iterator.default_iterator.expr self e);
      }
    in
    it.expr it v;
    !found
  in
  let acc = ref [] in
  Tast.iter_exprs src.Typed.str (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_apply
          (f, (Asttypes.Nolabel, Some a) :: (Asttypes.Nolabel, Some v) :: _)
        when is [ "Atomic"; "set" ] f -> (
          match ident_path a with
          | Some p when reads_back p v ->
              let n = Path.name p in
              acc :=
                Tast.finding rule ~file:src.Typed.file.Source.path ~loc:e.exp_loc
                  (Printf.sprintf
                     "Atomic.set of '%s' from a value computed with Atomic.get '%s': \
                      the read-modify-write is not one atomic step, so concurrent \
                      updates are lost"
                     n n)
                :: !acc
          | _ -> ())
      | _ -> ());
  List.rev !acc

(* --- poly-compare -------------------------------------------------------- *)

(* The comparison's subject type: [compare : τ -> τ -> int] instantiated at
   the use site; the first arrow argument is τ. *)
let subject_type (e : Typedtree.expression) =
  match Types.get_desc e.Typedtree.exp_type with
  | Types.Tarrow (_, a, _, _) -> Some a
  | _ -> None

let equality_ops = [ "="; "<>"; "<"; ">"; "<="; ">=" ]

let poly_compare (src : Typed.source) =
  let rule = Rule.poly_compare in
  let index = src.Typed.index in
  let owner = src.Typed.modname in
  let acc = ref [] in
  let report ~loc fmt = Format.kasprintf
      (fun m -> acc := Tast.finding rule ~file:src.Typed.file.Source.path ~loc m :: !acc) fmt
  in
  let at_site ~strict ~name (e : Typedtree.expression) =
    (* The ordering family tolerates float (primitive float comparison is a
       deterministic total function); [compare] does not — it feeds sorts
       and keyed structures, where nan breaks the total order. *)
    let verdict =
      match subject_type e with
      | None -> Tysafe.Undecidable "comparison type not an arrow at this site"
      | Some ty -> Tysafe.classify ~ordering:(not strict) index ~owner ty
    in
    match (verdict, strict) with
    | Tysafe.Safe, _ -> ()
    | Tysafe.Unsafe reason, _ ->
        let ty = match subject_type e with Some t -> Tysafe.to_string t | None -> "_" in
        report ~loc:e.Typedtree.exp_loc
          "%s at type %s is proved unsafe: %s" name ty reason
    | Tysafe.Undecidable reason, true ->
        let ty = match subject_type e with Some t -> Tysafe.to_string t | None -> "_" in
        report ~loc:e.Typedtree.exp_loc
          "cannot prove %s safe at type %s: %s (annotate the site with a \
           concrete type, or use a monomorphic comparator)"
          name ty reason
    | Tysafe.Undecidable _, false -> ()
  in
  Tast.iter_exprs src.Typed.str (fun e ->
      match e.Typedtree.exp_desc with
      | Typedtree.Texp_ident (p, _, _) -> (
          match Tast.path_segs p with
          | Some [ "compare" ] -> at_site ~strict:true ~name:"polymorphic compare" e
          | Some [ op ] when List.mem op equality_ops ->
              at_site ~strict:false ~name:("polymorphic (" ^ op ^ ")") e
          | _ -> ())
      | _ -> ());
  (* Set.Make / Map.Make: the functor bakes the argument's [compare] into a
     long-lived structure; when the argument is a literal struct its [t] is
     visible here, so an unsafe element type is caught at the application. *)
  let module_expr _self (me : Typedtree.module_expr) =
    match me.Typedtree.mod_desc with
    | Typedtree.Tmod_apply (f, arg, _) -> (
        (* The functor ident is itself often behind the coercion to its own
           functor type; peel to the underlying path. *)
        let rec peel (me : Typedtree.module_expr) =
          match me.Typedtree.mod_desc with
          | Typedtree.Tmod_constraint (inner, _, _, _) -> peel inner
          | d -> d
        in
        match peel f with
        | Typedtree.Tmod_ident (p, _) -> (
            match Option.map (Tast.last_segs 2) (Tast.path_segs p) with
            | Some [ ("Set" | "Map"); "Make" ] -> (
                (* The argument often arrives wrapped in the coercion to the
                   functor's parameter signature (whose [t] is abstract), so
                   peel constraints back to the literal struct first. *)
                let rec t_decl_of (me : Typedtree.module_expr) =
                  match me.Typedtree.mod_desc with
                  | Typedtree.Tmod_constraint (inner, _, _, _) -> t_decl_of inner
                  | Typedtree.Tmod_structure s ->
                      List.find_map
                        (fun (item : Typedtree.structure_item) ->
                          match item.Typedtree.str_desc with
                          | Typedtree.Tstr_type (_, decls) ->
                              List.find_map
                                (fun (d : Typedtree.type_declaration) ->
                                  if Ident.name d.Typedtree.typ_id = "t" then
                                    Some d.Typedtree.typ_type
                                  else None)
                                decls
                          | _ -> None)
                        s.Typedtree.str_items
                  | _ -> (
                      match me.Typedtree.mod_type with
                      | Types.Mty_signature items ->
                          List.find_map
                            (function
                              | Types.Sig_type (id, decl, _, _)
                                when Ident.name id = "t" ->
                                  Some decl
                              | _ -> None)
                            items
                      | _ -> None)
                in
                let t_decl = t_decl_of arg in
                match t_decl with
                | Some decl -> (
                    match Tysafe.classify_decl index ~owner decl with
                    | Tysafe.Unsafe reason ->
                        report ~loc:arg.Typedtree.mod_loc
                          "functor argument's element type is unsafe under its \
                           comparator's polymorphic fallback: %s"
                          reason
                    | _ -> ())
                | None -> ())
            | _ -> ())
        | _ -> ())
    | _ -> ()
  in
  let it =
    {
      Tast_iterator.default_iterator with
      module_expr =
        (fun self me ->
          module_expr self me;
          Tast_iterator.default_iterator.module_expr self me);
    }
  in
  it.structure it src.Typed.str;
  List.rev !acc

(* --- effect resolution (shared by escape + purity) ----------------------- *)

type resolved = { rmuts : Effects.mut list; rambients : Effects.ambient list }

let callee_summary (src : Typed.source) (c : Effects.call) =
  let index = src.Typed.index in
  match c.Effects.callee with
  | Effects.Cid id ->
      let key = src.Typed.modname ^ ":" ^ Ident.unique_name id in
      Option.map
        (fun s -> (key, src.Typed.modname, s))
        (Hashtbl.find_opt index.Typed.local_fns key)
  | Effects.Cglobal segs ->
      List.find_map
        (fun key ->
          Option.map
            (fun s ->
              let unit =
                match String.index_opt key '.' with
                | Some i -> String.sub key 0 i
                | None -> key
              in
              (key, unit, s))
            (Hashtbl.find_opt index.Typed.fns key))
        (Tast.lookup_candidates segs)

let param_index params id =
  let rec go i = function
    | [] -> None
    | p :: rest -> if Ident.same p id then Some i else go (i + 1) rest
  in
  go 0 params

let max_call_depth = 8

(* All mutations and ambient effects [s] performs, directly or through
   callees the index resolves, re-expressed in the caller's frame: a callee's
   parameter mutation maps through the bare-identifier argument at that
   position; a callee's mutation of its own captured/global state surfaces as
   a [Global] (cross-unit) or the shared ident (same unit); a callee-private
   mutation (fresh local state) is dropped.  Locations are call sites, so
   findings always point into the scanned file. *)
let rec resolve src ~visited ~depth (s : Effects.t) =
  let muts = ref (List.rev s.Effects.muts) in
  let ambients = ref (List.rev s.Effects.ambients) in
  if depth < max_call_depth then
    List.iter
      (fun (c : Effects.call) ->
        match callee_summary src c with
        | Some (key, unit, cs) when not (List.mem key visited) ->
            let sub = resolve src ~visited:(key :: visited) ~depth:(depth + 1) cs in
            List.iter
              (fun (m : Effects.mut) ->
                let guarded = m.Effects.guarded || c.Effects.cguarded in
                match m.Effects.base with
                | Tast.Local p -> (
                    match param_index cs.Effects.params p with
                    | Some j -> (
                        match List.nth_opt c.Effects.args j with
                        | Some (Some b) ->
                            muts :=
                              { m with Effects.base = b; mloc = c.Effects.cloc; guarded }
                              :: !muts
                        | _ -> ())
                    | None ->
                        if not (Tast.Iset.mem p cs.Effects.binders) then
                          (* the callee's captured/module state *)
                          let base =
                            if unit = src.Typed.modname then Tast.Local p
                            else Tast.Global (unit ^ "." ^ Ident.name p)
                          in
                          muts :=
                            { m with Effects.base; mloc = c.Effects.cloc; guarded }
                            :: !muts)
                | Tast.Global _ ->
                    muts := { m with Effects.mloc = c.Effects.cloc; guarded } :: !muts)
              sub.rmuts;
            List.iter
              (fun (a : Effects.ambient) ->
                ambients :=
                  { Effects.what = a.Effects.what ^ " (via callee)"; aloc = c.Effects.cloc }
                  :: !ambients)
              sub.rambients
        | _ -> ())
      s.Effects.calls;
  { rmuts = List.rev !muts; rambients = List.rev !ambients }

let resolve_summary src s = resolve src ~visited:[] ~depth:0 s

(* --- per-file bindings --------------------------------------------------- *)

type binding = { bname : string option; pure : bool; bloc : Location.t; summary : Effects.t }

let pure_attr attrs =
  List.exists
    (fun (a : Parsetree.attribute) -> a.attr_name.txt = "detlint.pure")
    attrs

let bindings_of ~aliases (src : Typed.source) =
  let acc = ref [] in
  let rec str_items items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                let bname =
                  match vb.vb_pat.pat_desc with
                  | Tpat_var (id, _) -> Some (Ident.name id)
                  | _ -> None
                in
                acc :=
                  {
                    bname;
                    pure = pure_attr vb.vb_attributes;
                    bloc = vb.vb_loc;
                    summary = Effects.of_function ~aliases vb.vb_expr;
                  }
                  :: !acc)
              vbs
        | Tstr_eval (e, attrs) ->
            acc :=
              { bname = None; pure = pure_attr attrs; bloc = item.str_loc;
                summary = Effects.of_function ~aliases e }
              :: !acc
        | Tstr_module mb -> bind_module mb
        | Tstr_recmodule mbs -> List.iter bind_module mbs
        | _ -> ())
      items
  and bind_module (mb : Typedtree.module_binding) = module_expr mb.mb_expr
  and module_expr (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> str_items s.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr me
    | Tmod_functor (_, body) -> module_expr body
    | _ -> ()
  in
  str_items src.Typed.str.str_items;
  List.rev !acc

(* --- unguarded-shared-mutation (escape analysis) ------------------------- *)

let free_in (s : Effects.t) = function
  | Tast.Global _ -> true
  | Tast.Local id ->
      (not (Tast.Iset.mem id s.Effects.binders))
      && not (List.exists (Ident.same id) s.Effects.params)

let cmp_start (a : Location.t) (b : Location.t) =
  compare a.loc_start.Lexing.pos_cnum b.loc_start.Lexing.pos_cnum

let unguarded_shared_mutation ~aliases (src : Typed.source) =
  let rule = Rule.unguarded_shared_mutation in
  let bindings = bindings_of ~aliases src in
  let acc = ref [] in
  let report ~loc fmt = Format.kasprintf
      (fun m -> acc := Tast.finding rule ~file:src.Typed.file.Source.path ~loc m :: !acc) fmt
  in
  (* (a) Inside each domain-crossing closure: any (transitively) reached
     unguarded mutation of state the closure did not create is a race with
     whatever the submitting domain does next. *)
  let shared = Hashtbl.create 16 in  (* base_key of state captured by spawn closures *)
  List.iter
    (fun b ->
      List.iter
        (fun (closure, _sloc) ->
          let cs = Effects.of_function ~aliases closure in
          let r = resolve_summary src cs in
          List.iter
            (fun ((base, _) as _use) ->
              if free_in cs base then Hashtbl.replace shared (base_key base) ())
            cs.Effects.uses;
          List.iter
            (fun (m : Effects.mut) ->
              if free_in cs m.Effects.base then begin
                Hashtbl.replace shared (base_key m.Effects.base) ();
                if not m.Effects.guarded then
                  report ~loc:m.Effects.mloc
                    "'%s' is captured by a domain-crossing closure and mutated \
                     (%s) without Mutex/Atomic"
                    (base_name m.Effects.base) m.Effects.kind
              end)
            r.rmuts)
        b.summary.Effects.spawns)
    bindings;
  (* (b) Back on the submitting side: an unguarded write to state a spawned
     closure reads or writes, sequenced after the first submission in the
     same body, races with the closure.  Writes before the first submission
     are initialisation and stay clean. *)
  List.iter
    (fun b ->
      match b.summary.Effects.spawns with
      | [] -> ()
      | spawns ->
          let first =
            List.fold_left
              (fun acc (_, l) -> if cmp_start l acc < 0 then l else acc)
              (snd (List.hd spawns)) (List.tl spawns)
          in
          let r = resolve_summary src b.summary in
          List.iter
            (fun (m : Effects.mut) ->
              if
                (not m.Effects.guarded)
                && Hashtbl.mem shared (base_key m.Effects.base)
                && cmp_start m.Effects.mloc first > 0
              then
                report ~loc:m.Effects.mloc
                  "write to '%s' (%s) after a domain-crossing submission that \
                   captures it, outside Mutex/Atomic"
                  (base_name m.Effects.base) m.Effects.kind)
            r.rmuts)
    bindings;
  sort_findings !acc

(* --- purity contracts ---------------------------------------------------- *)

let purity_contract ~aliases (src : Typed.source) =
  let rule = Rule.purity_contract in
  let acc = ref [] in
  let report ~loc fmt = Format.kasprintf
      (fun m -> acc := Tast.finding rule ~file:src.Typed.file.Source.path ~loc m :: !acc) fmt
  in
  List.iter
    (fun b ->
      if b.pure then begin
        let name = match b.bname with Some n -> n | None -> "<binding>" in
        let s = b.summary in
        let r = resolve_summary src s in
        List.iter
          (fun (m : Effects.mut) ->
            (* A lock does not purify: guarded mutations of non-local state
               are still effects the contract forbids. *)
            match m.Effects.base with
            | Tast.Local id when List.exists (Ident.same id) s.Effects.params ->
                report ~loc:m.Effects.mloc
                  "[@detlint.pure] %s mutates its argument '%s' (%s)" name
                  (Ident.name id) m.Effects.kind
            | Tast.Local id when not (Tast.Iset.mem id s.Effects.binders) ->
                report ~loc:m.Effects.mloc
                  "[@detlint.pure] %s mutates captured state '%s' (%s)" name
                  (Ident.name id) m.Effects.kind
            | Tast.Local _ -> ()  (* fresh local state: allowed *)
            | Tast.Global g ->
                report ~loc:m.Effects.mloc
                  "[@detlint.pure] %s mutates global state '%s' (%s)" name g
                  m.Effects.kind)
          r.rmuts;
        List.iter
          (fun (a : Effects.ambient) ->
            report ~loc:a.Effects.aloc "[@detlint.pure] %s performs %s" name
              a.Effects.what)
          r.rambients
      end)
    (bindings_of ~aliases src);
  sort_findings !acc

(* --- dispatch ------------------------------------------------------------ *)

(* bad-suppression and unused-suppression are computed by the runner from
   the pragmas and their use counts; no tree scan here. *)
let check_all ?(rules = Rule.all) (src : Typed.source) =
  let aliases = Tast.aliases src.Typed.str in
  let check (rule : Rule.t) =
    match rule.Rule.id with
    | Rule.Unordered_iteration -> unordered_iteration ~aliases src
    | Rule.Poly_compare -> poly_compare src
    | Rule.Physical_equality -> physical_equality ~aliases src
    | Rule.Ambient_time -> ambient_time ~aliases src
    | Rule.Ambient_random -> ambient_random ~aliases src
    | Rule.Marshal -> marshal ~aliases src
    | Rule.Unguarded_shared_mutation -> unguarded_shared_mutation ~aliases src
    | Rule.Atomic_rmw -> atomic_rmw ~aliases src
    | Rule.Purity_contract -> purity_contract ~aliases src
    | Rule.Bad_suppression | Rule.Unused_suppression -> []
  in
  sort_findings (List.concat_map check rules)
