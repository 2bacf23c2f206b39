(* Per-function effect summaries over the typedtree, shared by the
   closure-escape race analysis and the purity-contract checker.

   One eval-order walk of a function body collects, with a syntactic lockset:

   - mutations (ref assignment, mutable-field set, the stdlib's in-place
     mutators) peeled to their base identifier, each tagged with whether a
     [Mutex.lock]/[Mutex.protect] region or an [Atomic] operation guards it;
   - ambient-effect calls (wall clock, stdlib Random, IO, Domain.spawn);
   - calls whose callee might itself have effects, with the bases of its
     bare-identifier arguments so a callee's parameter mutations can be
     re-expressed at the call site;
   - uses (reads) of free identifiers, so the escape analysis can see state
     a closure only observes while another domain writes it.

   The lockset is a sequence-sensitive counter, not a points-to analysis: a
   [Mutex.lock e] statement guards the rest of its enclosing sequence until
   a matching [Mutex.unlock]; branches take the minimum depth of their arms;
   a nested [fun] resets the depth to zero because the closure may outlive
   the lock (only [Mutex.protect]'s own thunk inherits the guard).  This is
   exactly strong enough to certify the pool's handshake bookkeeping and the
   sharded metrics, and everything it cannot prove stays a finding. *)

type mut = {
  base : Tast.base;
  kind : string;  (* "<-", ":=", "Array.set", ... for the message *)
  mloc : Location.t;
  guarded : bool;
}

type callee = Cid of Ident.t | Cglobal of string list  (* normalized segments *)

type call = {
  callee : callee;
  cloc : Location.t;
  cguarded : bool;
  args : Tast.base option list;  (* positional (Nolabel) args, peeled *)
}

type ambient = { what : string; aloc : Location.t }

type t = {
  params : Ident.t list;
  binders : Tast.Iset.t;  (* every ident bound under the body *)
  muts : mut list;
  ambients : ambient list;
  calls : call list;
  uses : (Tast.base * Location.t) list;  (* free-ident reads, deduplicated *)
  spawns : (Typedtree.expression * Location.t) list;
      (* closure arguments handed to Domain.spawn / Pool.run / Pool.map *)
}

(* --- effect classification tables (normalized path suffixes) ------------- *)

let is_suffix segs suffix = Tast.last_segs (List.length suffix) segs = suffix

(* In-place mutators of their first positional argument. *)
let stdlib_mutators =
  [
    ([ "Array"; "set" ], "Array.set");
    ([ "Array"; "unsafe_set" ], "Array.unsafe_set");
    ([ "Array"; "fill" ], "Array.fill");
    ([ "Array"; "blit" ], "Array.blit");
    ([ "Array"; "sort" ], "Array.sort");
    ([ "Array"; "stable_sort" ], "Array.stable_sort");
    ([ "Array"; "fast_sort" ], "Array.fast_sort");
    ([ "Bytes"; "set" ], "Bytes.set");
    ([ "Bytes"; "unsafe_set" ], "Bytes.unsafe_set");
    ([ "Bytes"; "fill" ], "Bytes.fill");
    ([ "Bytes"; "blit" ], "Bytes.blit");
    ([ "Hashtbl"; "add" ], "Hashtbl.add");
    ([ "Hashtbl"; "replace" ], "Hashtbl.replace");
    ([ "Hashtbl"; "remove" ], "Hashtbl.remove");
    ([ "Hashtbl"; "reset" ], "Hashtbl.reset");
    ([ "Hashtbl"; "clear" ], "Hashtbl.clear");
    ([ "Hashtbl"; "filter_map_inplace" ], "Hashtbl.filter_map_inplace");
    ([ "Buffer"; "add_char" ], "Buffer.add_char");
    ([ "Buffer"; "add_string" ], "Buffer.add_string");
    ([ "Buffer"; "add_bytes" ], "Buffer.add_bytes");
    ([ "Buffer"; "add_substring" ], "Buffer.add_substring");
    ([ "Buffer"; "add_buffer" ], "Buffer.add_buffer");
    ([ "Buffer"; "clear" ], "Buffer.clear");
    ([ "Buffer"; "reset" ], "Buffer.reset");
    ([ "Buffer"; "truncate" ], "Buffer.truncate");
    ([ "Queue"; "add" ], "Queue.add");
    ([ "Queue"; "push" ], "Queue.push");
    ([ "Queue"; "pop" ], "Queue.pop");
    ([ "Queue"; "take" ], "Queue.take");
    ([ "Queue"; "clear" ], "Queue.clear");
    ([ "Queue"; "transfer" ], "Queue.transfer");
    ([ "Stack"; "push" ], "Stack.push");
    ([ "Stack"; "pop" ], "Stack.pop");
    ([ "Stack"; "clear" ], "Stack.clear");
    ([ "incr" ], "incr");
    ([ "decr" ], "decr");
  ]

(* Atomic operations mutate their first argument but carry their own
   synchronisation, so they are recorded as guarded mutations. *)
let atomic_mutators =
  [
    [ "Atomic"; "set" ];
    [ "Atomic"; "exchange" ];
    [ "Atomic"; "compare_and_set" ];
    [ "Atomic"; "fetch_and_add" ];
    [ "Atomic"; "incr" ];
    [ "Atomic"; "decr" ];
  ]

(* Mutators that are domain-safe by the callee's own contract: the sharded
   metrics writers ([?worker] routes each domain to its own slot, merged only
   at read time), so a closure calling them across a spawn is not a race.
   Recorded as guarded mutations, like [Atomic]. *)
let contract_guarded_mutators =
  [
    [ "Metrics"; "incr" ];
    [ "Metrics"; "add_seconds" ];
    [ "Metrics"; "time" ];
    [ "Metrics"; "observe" ];
  ]

let is_guarded_mutator segs =
  List.exists (fun p -> is_suffix segs p) atomic_mutators
  || List.exists (fun p -> is_suffix segs p) contract_guarded_mutators

(* Ambient effects: what a [@detlint.pure] function must not reach (every
   kind), and what the determinism rules ambient-time, ambient-random and
   marshal flag wherever they appear (their own kinds).  One table decides
   what "ambient" means for both.  [Obs.Clock] counts for purity, a stronger
   contract than determinism-linting, which sanctions that module. *)
type ambient_kind = Wall_clock | Stdlib_random | Marshal_bytes | Other

let ambient_calls =
  [
    ([ "Sys"; "time" ], Wall_clock, "wall-clock read (Sys.time)");
    ([ "Unix"; "time" ], Wall_clock, "wall-clock read (Unix.time)");
    ([ "Unix"; "gettimeofday" ], Wall_clock, "wall-clock read (Unix.gettimeofday)");
    ([ "Clock"; "now" ], Other, "monotonic-clock read (Obs.Clock.now)");
    ([ "Clock"; "elapsed" ], Other, "monotonic-clock read (Obs.Clock.elapsed)");
    ([ "Sys"; "getenv" ], Other, "environment read (Sys.getenv)");
    ([ "Sys"; "getenv_opt" ], Other, "environment read (Sys.getenv_opt)");
    ([ "Sys"; "command" ], Other, "subprocess (Sys.command)");
    ([ "print_string" ], Other, "IO (print_string)");
    ([ "print_endline" ], Other, "IO (print_endline)");
    ([ "print_int" ], Other, "IO (print_int)");
    ([ "print_newline" ], Other, "IO (print_newline)");
    ([ "prerr_string" ], Other, "IO (prerr_string)");
    ([ "prerr_endline" ], Other, "IO (prerr_endline)");
    ([ "read_line" ], Other, "IO (read_line)");
    ([ "output_string" ], Other, "IO (output_string)");
    ([ "output_value" ], Marshal_bytes, "IO (output_value)");
    ([ "input_line" ], Other, "IO (input_line)");
    ([ "input_value" ], Marshal_bytes, "IO (input_value)");
    ([ "Printf"; "printf" ], Other, "IO (Printf.printf)");
    ([ "Printf"; "eprintf" ], Other, "IO (Printf.eprintf)");
    ([ "Format"; "printf" ], Other, "IO (Format.printf)");
    ([ "Format"; "eprintf" ], Other, "IO (Format.eprintf)");
    ([ "exit" ], Other, "process exit");
  ]

let ambient_modules =
  [
    ("Random", Stdlib_random);
    ("In_channel", Other);
    ("Out_channel", Other);
    ("Marshal", Marshal_bytes);
  ]

(* The ambient kind and description of a call to (normalized) [segs]. *)
let ambient_of segs =
  match List.find_opt (fun (p, _, _) -> is_suffix segs p) ambient_calls with
  | Some (_, kind, what) -> Some (kind, what)
  | None -> (
      match segs with
      | m :: _ :: _ ->
          List.find_map
            (fun (am, kind) ->
              if String.equal am m then
                Some (kind, "ambient-effect call (" ^ String.concat "." segs ^ ")")
              else None)
            ambient_modules
      | _ -> None)

(* Submission points where a closure crosses onto another domain.  The pool's
   [with_pool] body runs on the calling domain, so it is not one. *)
let spawn_paths = [ [ "Domain"; "spawn" ]; [ "Pool"; "run" ]; [ "Pool"; "map" ] ]

(* The callee's alias-resolved segments ([module D = Domain] … [D.spawn] is
   [Domain.spawn]); [None] for a callee the file binds itself. *)
let fn_segs ~aliases (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with
  | Typedtree.Texp_ident (p, _, _) -> Tast.resolved_segs aliases p
  | _ -> None

let is_function (e : Typedtree.expression) =
  match e.Typedtree.exp_desc with Typedtree.Texp_function _ -> true | _ -> false

(* --- the walk ------------------------------------------------------------ *)

type sink = {
  on_mut : mut -> unit;
  on_ambient : ambient -> unit;
  on_call : call -> unit;
  on_use : Tast.base -> Location.t -> unit;
  on_spawn : Typedtree.expression -> Location.t -> unit;
      (* called once per closure argument of a spawn-like application *)
  aliases : string list Ident.Map.t;  (* the unit's module aliases (Tast.aliases) *)
}

let nolabel_args args =
  List.filter_map
    (fun (l, a) -> match (l, a) with Asttypes.Nolabel, Some e -> Some e | _ -> None)
    args

(* Walk [e] at lock depth [d]; returns the depth after [e] has evaluated, so
   sequences and let-chains propagate [Mutex.lock]'s effect to their tails. *)
let rec walk sink d (e : Typedtree.expression) =
  let open Typedtree in
  match e.exp_desc with
  | Texp_ident (Path.Pident id, _, _) ->
      sink.on_use (Tast.Local id) e.exp_loc;
      d
  | Texp_ident (p, _, _) ->
      sink.on_use (Tast.Global (Path.name p)) e.exp_loc;
      d
  | Texp_constant _ -> d
  | Texp_let (_, vbs, body) ->
      let d = List.fold_left (fun d vb -> walk sink d vb.vb_expr) d vbs in
      walk sink d body
  | Texp_sequence (a, b) ->
      let d = walk sink d a in
      walk sink d b
  | Texp_ifthenelse (c, t, f) ->
      let d = walk sink d c in
      let dt = walk sink d t in
      let df = match f with Some f -> walk sink d f | None -> d in
      Stdlib.min dt df
  | Texp_match (scrut, cases, _) ->
      let d = walk sink d scrut in
      walk_cases sink d cases
  | Texp_try (body, cases) ->
      let db = walk sink d body in
      Stdlib.min db (walk_cases sink d cases)
  | Texp_while (c, body) ->
      let d = walk sink d c in
      ignore (walk sink d body);
      d
  | Texp_for (_, _, lo, hi, _, body) ->
      let d = walk sink d lo in
      let d = walk sink d hi in
      ignore (walk sink d body);
      d
  | Texp_function { cases; _ } ->
      (* The closure may run after the lock is gone: depth resets to 0. *)
      ignore (walk_cases sink 0 cases);
      d
  | Texp_setfield (base, _, ld, v) ->
      let d = walk sink d base in
      let d = walk sink d v in
      (match Tast.base_of base with
      | Some b ->
          sink.on_mut
            { base = b; kind = ld.Types.lbl_name ^ " <-"; mloc = e.exp_loc; guarded = d > 0 }
      | None -> ());
      d
  | Texp_apply (f, args) -> walk_apply sink d e f args
  | _ ->
      (* Structural fallback: visit child expressions at the current depth.
         Covers constructors, tuples, records, arrays, field reads, local
         modules — nothing there changes the lockset. *)
      let it =
        {
          Tast_iterator.default_iterator with
          expr = (fun _ c -> ignore (walk sink d c));
        }
      in
      Tast_iterator.default_iterator.expr it e;
      d

and walk_cases : type k. sink -> int -> k Typedtree.case list -> int =
 fun sink d cases ->
  List.fold_left
    (fun acc c ->
      (match c.Typedtree.c_guard with Some g -> ignore (walk sink d g) | None -> ());
      Stdlib.min acc (walk sink d c.Typedtree.c_rhs))
    d cases

and walk_apply sink d e f args =
  let open Typedtree in
  let pos_args = nolabel_args args in
  let all_args = List.filter_map (fun (_, a) -> a) args in
  let walk_args d = List.iter (fun a -> ignore (walk sink d a)) all_args in
  match fn_segs ~aliases:sink.aliases f with
  | Some segs when is_suffix segs [ "Mutex"; "lock" ] ->
      walk_args d;
      d + 1
  | Some segs when is_suffix segs [ "Mutex"; "unlock" ] ->
      walk_args d;
      Stdlib.max 0 (d - 1)
  | Some segs when is_suffix segs [ "Mutex"; "protect" ] ->
      (* protect m thunk: the thunk's own body runs with the lock held. *)
      List.iter
        (fun a ->
          if is_function a then
            match a.exp_desc with
            | Texp_function { cases; _ } -> ignore (walk_cases sink (d + 1) cases)
            | _ -> ()
          else ignore (walk sink d a))
        all_args;
      d
  | Some segs when is_guarded_mutator segs ->
      walk_args d;
      (match pos_args with
      | a0 :: _ -> (
          match Tast.base_of a0 with
          | Some b ->
              sink.on_mut
                {
                  base = b;
                  kind = String.concat "." (Tast.last_segs 2 segs);
                  mloc = e.exp_loc;
                  guarded = true;
                }
          | None -> ())
      | [] -> ());
      d
  | Some segs when is_suffix segs [ ":=" ] -> (
      walk_args d;
      match pos_args with
      | a0 :: _ -> (
          match Tast.base_of a0 with
          | Some b ->
              sink.on_mut { base = b; kind = ":="; mloc = e.exp_loc; guarded = d > 0 };
              d
          | None -> d)
      | [] -> d)
  | Some segs when List.exists (fun p -> is_suffix segs p) spawn_paths ->
      (* Closure arguments cross domains: report them to the spawn sink
         without walking them (summaries exclude them — their effects happen
         on another domain and are charged to the spawn site by the escape
         analysis, not to this function). *)
      List.iter
        (fun a -> if is_function a then sink.on_spawn a e.exp_loc else ignore (walk sink d a))
        all_args;
      sink.on_ambient
        { what = "domain submission (" ^ String.concat "." (Tast.last_segs 2 segs) ^ ")";
          aloc = e.exp_loc };
      d
  | resolved -> (
      match f.exp_desc with
      | Texp_ident (p, _, _) ->
          walk_args d;
          Option.iter
            (fun segs ->
              (match (List.find_opt (fun (p, _) -> is_suffix segs p) stdlib_mutators, pos_args) with
              | Some (_, kind), a0 :: _ ->
                  Option.iter
                    (fun b -> sink.on_mut { base = b; kind; mloc = e.exp_loc; guarded = d > 0 })
                    (Tast.base_of a0)
              | _ -> ());
              Option.iter
                (fun (_, what) -> sink.on_ambient { what; aloc = e.exp_loc })
                (ambient_of segs))
            resolved;
          (* Record the call edge for interprocedural resolution: a local
             callee by stamp, any other by its resolved (else spelled) path. *)
          let callee =
            match (p, resolved) with
            | Path.Pident id, _ -> Some (Cid id)
            | _, Some s -> Some (Cglobal s)
            | _, None -> Option.map (fun s -> Cglobal s) (Tast.path_segs p)
          in
          Option.iter
            (fun callee ->
              sink.on_call
                { callee; cloc = e.exp_loc; cguarded = d > 0;
                  args = List.map Tast.base_of pos_args })
            callee;
          d
      | _ ->
          ignore (walk sink d f);
          walk_args d;
          d)

(* --- summaries ----------------------------------------------------------- *)

let peel_params (e : Typedtree.expression) =
  let rec go acc (e : Typedtree.expression) =
    match e.Typedtree.exp_desc with
    | Typedtree.Texp_function { param; cases = [ c ]; _ } ->
        go (param :: acc) c.Typedtree.c_rhs
    | _ -> (List.rev acc, e)
  in
  go [] e

let summarize ~aliases ~params (body : Typedtree.expression) =
  let muts = ref [] and ambients = ref [] and calls = ref [] in
  let uses = ref [] and seen_uses = ref [] and spawns = ref [] in
  let on_use b loc =
    let key = match b with Tast.Local id -> Ident.unique_name id | Tast.Global g -> g in
    if not (List.exists (String.equal key) !seen_uses) then begin
      seen_uses := key :: !seen_uses;
      uses := (b, loc) :: !uses
    end
  in
  let sink =
    {
      on_mut = (fun m -> muts := m :: !muts);
      on_ambient = (fun a -> ambients := a :: !ambients);
      on_call = (fun c -> calls := c :: !calls);
      on_use;
      on_spawn = (fun closure loc -> spawns := (closure, loc) :: !spawns);
      aliases;
    }
  in
  ignore (walk sink 0 body);
  {
    params;
    binders = Tast.binders_under body;
    muts = List.rev !muts;
    ambients = List.rev !ambients;
    calls = List.rev !calls;
    uses = List.rev !uses;
    spawns = List.rev !spawns;
  }

(* Summary of a closure expression ([fun ... ->] chain). *)
let of_function ~aliases (e : Typedtree.expression) =
  let params, body = peel_params e in
  summarize ~aliases ~params body
