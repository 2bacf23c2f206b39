(* detlint's source of truth: an index over the [.cmt] files dune
   already produces ([-bin-annot] is on in every stanza).  Each cmt holds the
   typedtree of one compilation unit plus the path of the source it came
   from; the index maps scanned source paths back to those trees and
   precomputes, sequentially at build time, everything the per-file checks
   will want to look up:

   - type declarations, so the poly-compare classifier can expand
     abbreviations and walk variant/record bodies across files;
   - per-function effect summaries (see {!Effects}), so the escape and
     purity analyses are interprocedural within the indexed set.

   All tables are frozen before any rule runs, so per-file checks are pure
   lookups and the report stays byte-identical at every [--jobs].

   Identifier scoping: OCaml ident stamps are unique only within one
   compilation unit, so stamped (local) names key per-unit tables under
   ["Unit:ident_stamp"], while cross-unit references key a global table
   under normalized dotted names ("Flp__Value.compare_msg") — the same
   spelling {!Tast.lookup_candidates} produces from a use-site [Path.t]. *)

type entry = {
  modname : string;  (* compilation unit, e.g. "Flp__Zoo" *)
  source_path : string list;  (* cmt-recorded path, split on '/', "."/".." dropped *)
  digest : string option;  (* of the source text the typedtree was built from *)
  str : Typedtree.structure;
}

type index = {
  entries : entry list;
  decls : (string, string * Types.type_declaration) Hashtbl.t;
      (* dotted name -> owning unit * decl *)
  local_decls : (string, string * Types.type_declaration) Hashtbl.t;
      (* "Unit:t_123" -> owning unit * decl *)
  fns : (string, Effects.t) Hashtbl.t;  (* dotted name -> summary *)
  local_fns : (string, Effects.t) Hashtbl.t;  (* "Unit:f_42" -> summary *)
}

(* One source under audit: the scanned file (its path is echoed into
   findings, its text carries the comment pragmas) plus its typedtree and the
   index it can resolve through. *)
type source = { file : Source.t; modname : string; str : Typedtree.structure; index : index }

let split_path p =
  List.filter (fun s -> s <> "" && s <> "." && s <> "..") (String.split_on_char '/' p)

(* --- table registration -------------------------------------------------- *)

let local_key modname id = modname ^ ":" ^ Ident.unique_name id

let register_decls index ~modname str =
  let rec str_items prefix items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_type (_, decls) ->
            List.iter
              (fun (d : Typedtree.type_declaration) ->
                let payload = (modname, d.typ_type) in
                Hashtbl.replace index.local_decls (local_key modname d.typ_id) payload;
                Hashtbl.replace index.decls
                  (String.concat "." (prefix @ [ Ident.name d.typ_id ]))
                  payload)
              decls
        | Tstr_module mb -> bind_module prefix mb
        | Tstr_recmodule mbs -> List.iter (bind_module prefix) mbs
        | _ -> ())
      items
  and bind_module prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id -> module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> str_items prefix s.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | Tmod_functor (_, body) -> module_expr prefix body
    | _ -> ()
  in
  str_items [ modname ] str.Typedtree.str_items

let register_fns index ~modname ~aliases str =
  let rec str_items prefix items =
    List.iter
      (fun (item : Typedtree.structure_item) ->
        match item.str_desc with
        | Tstr_value (_, vbs) ->
            List.iter
              (fun (vb : Typedtree.value_binding) ->
                match vb.vb_pat.pat_desc with
                | Tpat_var (id, _) when Effects.is_function vb.vb_expr ->
                    let summary = Effects.of_function ~aliases vb.vb_expr in
                    Hashtbl.replace index.local_fns (local_key modname id) summary;
                    Hashtbl.replace index.fns
                      (String.concat "." (prefix @ [ Ident.name id ]))
                      summary
                | _ -> ())
              vbs
        | Tstr_module mb -> bind_module prefix mb
        | Tstr_recmodule mbs -> List.iter (bind_module prefix) mbs
        | _ -> ())
      items
  and bind_module prefix (mb : Typedtree.module_binding) =
    match mb.mb_id with
    | None -> ()
    | Some id -> module_expr (prefix @ [ Ident.name id ]) mb.mb_expr
  and module_expr prefix (me : Typedtree.module_expr) =
    match me.mod_desc with
    | Tmod_structure s -> str_items prefix s.str_items
    | Tmod_constraint (me, _, _, _) -> module_expr prefix me
    | Tmod_functor (_, body) -> module_expr prefix body
    | _ -> ()
  in
  str_items [ modname ] str.Typedtree.str_items

(* Stamp-keyed registration sweeps the whole tree, catching declarations the
   dotted-prefix walk cannot name: modules packed inside expressions
   ([(module struct ... end)]), functor bodies, local lets.  Stamps are
   unique within the unit, so no prefix is needed, and overlaps with the
   dotted walk replace identical payloads. *)
let register_local index ~modname ~aliases str =
  let it =
    {
      Tast_iterator.default_iterator with
      type_declarations =
        (fun sub (rf, decls) ->
          List.iter
            (fun (d : Typedtree.type_declaration) ->
              Hashtbl.replace index.local_decls (local_key modname d.typ_id)
                (modname, d.typ_type))
            decls;
          Tast_iterator.default_iterator.type_declarations sub (rf, decls));
      value_binding =
        (fun sub (vb : Typedtree.value_binding) ->
          (match vb.vb_pat.pat_desc with
          | Tpat_var (id, _) when Effects.is_function vb.vb_expr ->
              Hashtbl.replace index.local_fns (local_key modname id)
                (Effects.of_function ~aliases vb.vb_expr)
          | _ -> ());
          Tast_iterator.default_iterator.value_binding sub vb);
    }
  in
  it.structure it str

let empty_index () =
  {
    entries = [];
    decls = Hashtbl.create 256;
    local_decls = Hashtbl.create 256;
    fns = Hashtbl.create 256;
    local_fns = Hashtbl.create 256;
  }

let build units =
  let index = { (empty_index ()) with entries = units } in
  List.iter
    (fun (e : entry) ->
      register_decls index ~modname:e.modname e.str;
      let aliases = Tast.aliases e.str in
      register_fns index ~modname:e.modname ~aliases e.str;
      register_local index ~modname:e.modname ~aliases e.str)
    units;
  index

(* --- cmt discovery ------------------------------------------------------- *)

let rec walk_cmts acc dir =
  match Sys.is_directory dir with
  | true ->
      (* detlint: allow unordered-iteration -- entries are sorted with String.compare on the next line, before the order can escape *)
      let entries = Sys.readdir dir in
      Array.sort String.compare entries;
      Array.fold_left (fun acc name -> walk_cmts acc (Filename.concat dir name)) acc entries
  | false -> if Filename.check_suffix dir ".cmt" then dir :: acc else acc
  | exception Sys_error _ -> acc

let read_unit path =
  match Cmt_format.read_cmt path with
  | {
      cmt_annots = Cmt_format.Implementation str;
      cmt_modname;
      cmt_sourcefile = Some src;
      cmt_source_digest = digest;
      _;
    }
    when Filename.check_suffix src ".ml" ->
      Some { modname = cmt_modname; source_path = split_path src; digest; str }
  | _ -> None
  | exception _ -> None

let load ~cmt_dir =
  if not (Sys.file_exists cmt_dir && Sys.is_directory cmt_dir) then
    Error (Printf.sprintf "cmt directory not found: %s (build with dune first)" cmt_dir)
  else
    let cmts = List.rev (walk_cmts [] cmt_dir) in
    (* A source can be compiled into several units (a library and an
       executable both listing it); keep the first in sorted cmt order so
       the pick is deterministic. *)
    let seen = Hashtbl.create 64 in
    let units =
      List.filter_map
        (fun path ->
          match read_unit path with
          | Some u ->
              let key = String.concat "/" u.source_path in
              if Hashtbl.mem seen key then None
              else begin
                Hashtbl.add seen key ();
                Some u
              end
          | None -> None)
        cmts
    in
    if units = [] then
      Error (Printf.sprintf "no .cmt files under %s (build with dune first)" cmt_dir)
    else Ok (build units)

(* Match a scanned path against the cmt-recorded one by comparing path-segment
   suffixes: the audit may run from the checkout root ("lib/flp/zoo.ml") or
   from _build ("../lib/flp/zoo.ml") while the cmt records the context-root
   spelling.  Longest suffix wins; ties break on sorted entry order. *)
let lookup index ~path =
  let scanned = split_path path in
  let suffix_len a b =
    (* length of the longest common suffix of two segment lists *)
    let rec go n = function
      | x :: xs, y :: ys when String.equal x y -> go (n + 1) (xs, ys)
      | _ -> n
    in
    go 0 (List.rev a, List.rev b)
  in
  let base = match List.rev scanned with b :: _ -> Some b | [] -> None in
  match base with
  | None -> None
  | Some base ->
      let best =
        List.fold_left
          (fun acc e ->
            match List.rev e.source_path with
            | b :: _ when String.equal b base ->
                let n = suffix_len scanned e.source_path in
                let full = min (List.length scanned) (List.length e.source_path) in
                if n = full then
                  match acc with
                  | Some (m, _) when m >= n -> acc
                  | _ -> Some (n, e)
                else acc
            | _ -> acc)
          None index.entries
      in
      Option.map (fun (_, e) -> e) best

(* A typedtree is evidence about the text it was compiled from, not about the
   file on disk: a cmt whose recorded digest differs from the scanned text
   would audit stale code and report it clean. *)
let source_of index (file : Source.t) =
  match lookup index ~path:file.Source.path with
  | None ->
      Error "no cmt: the file does not compile, or was not built under --cmt-dir"
  | Some e when not (Option.equal String.equal e.digest (Some (Digest.string file.text))) ->
      Error "stale cmt: the file changed since it was compiled; run `dune build @check`"
  | Some e -> Ok { file; modname = e.modname; str = e.str; index }

(* --- in-process fixture typing ------------------------------------------- *)

(* Type an in-memory fixture against the installed stdlib (and [+unix], so a
   fixture naming [Unix] needs no auto-include alert), producing a [source]
   whose index contains just itself.  The compiler front end (lexer buffers,
   env caches, type levels) is global mutable state, so two domains typing
   at once corrupt each other: one process-wide mutex serialises the whole
   pipeline.  Rule scans over the resulting immutable trees run in
   parallel. *)
let front_end = Mutex.create ()

let fixture_count = ref 0

let fixture ~path text =
  Mutex.protect front_end (fun () ->
      incr fixture_count;
      let modname = Printf.sprintf "Detlint_fixture_%d" !fixture_count in
      match
        if not (List.exists (String.equal "+unix") !Clflags.include_dirs) then
          Clflags.include_dirs := "+unix" :: !Clflags.include_dirs;
        Compmisc.init_path ();
        let env = Compmisc.initial_env () in
        let lexbuf = Lexing.from_string text in
        Lexing.set_filename lexbuf path;
        let ast = Parse.implementation lexbuf in
        Typemod.type_structure env ast
      with
      | str, _, _, _, _ ->
          let unit =
            { modname; source_path = split_path path; digest = Some (Digest.string text); str }
          in
          Ok { file = { Source.path; text }; modname; str; index = build [ unit ] }
      | exception exn -> (
          match Location.error_of_exn exn with
          | Some (`Ok report) ->
              Error (Format.asprintf "%a" Location.print_report report)
          | _ -> Error (Printexc.to_string exn)))
