type t = {
  rule : string;
  file : string;
  line : int;
  first : int;
  last : int;
  reason : string;
}

let valid t = t.reason <> "" && Rule.known t.rule

(* Split so that scanning this very file does not read the literal as a
   pragma: detlint audits its own sources. *)
let marker = "detlint:" ^ " allow"

let is_ident_char c =
  (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c = '-' || c = '_'

let find_sub ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i =
    if i + m > n then None
    else if String.sub s i m = sub then Some i
    else go (i + 1)
  in
  go 0

(* Parse "<rule-id> [separator] <reason>": the id is the leading kebab token;
   the reason is everything after it, minus a leading dash/em-dash/colon
   separator and a trailing comment closer. *)
let parse_spec s =
  let n = String.length s in
  let start = ref 0 in
  while !start < n && s.[!start] = ' ' do incr start done;
  let stop = ref !start in
  while !stop < n && is_ident_char s.[!stop] do incr stop done;
  let rule = String.sub s !start (!stop - !start) in
  let rest = String.sub s !stop (n - !stop) in
  let rest = String.trim rest in
  let rest =
    if String.length rest >= 3 && String.sub rest 0 3 = "\xe2\x80\x94" then
      String.sub rest 3 (String.length rest - 3)
    else if String.length rest >= 2 && String.sub rest 0 2 = "--" then
      String.sub rest 2 (String.length rest - 2)
    else if String.length rest >= 1 && (rest.[0] = '-' || rest.[0] = ':') then
      String.sub rest 1 (String.length rest - 1)
    else rest
  in
  let rest = String.trim rest in
  let rest =
    match find_sub ~sub:"*)" rest with
    | Some i -> String.trim (String.sub rest 0 i)
    | None -> rest
  in
  (rule, rest)

(* Scan [line] entering at comment depth [d]; returns the depth after the
   line and whether any non-whitespace appeared outside a comment.  Strings
   containing "(*" would fool this, but a suppression whose scope hinges on
   such a line should be rewritten anyway. *)
let scan_line d line =
  let n = String.length line in
  let rec go i d significant =
    if i >= n then (d, significant)
    else if i + 1 < n && line.[i] = '(' && line.[i + 1] = '*' then
      go (i + 2) (d + 1) significant
    else if i + 1 < n && line.[i] = '*' && line.[i + 1] = ')' && d > 0 then
      go (i + 2) (d - 1) significant
    else if d = 0 && line.[i] <> ' ' && line.[i] <> '\t' && line.[i] <> '\r' then
      go (i + 1) d true
    else go (i + 1) d significant
  in
  go 0 d false

(* Comment pragmas: one per line, covering that line and the next
   *significant* line — blank lines and comment-only lines between the
   pragma and the expression it excuses do not break the association, so a
   pragma can sit inline after the flagged expression, directly above it, or
   above a comment that explains the site. *)
let of_comments (src : Source.t) =
  let lines = Array.of_list (Source.lines src) in
  let acc = ref [] in
  Array.iteri
    (fun i line ->
      match find_sub ~sub:marker line with
      | None -> ()
      | Some at ->
          let lnum = i + 1 in
          let spec = String.sub line (at + String.length marker)
                       (String.length line - at - String.length marker) in
          let rule, reason = parse_spec spec in
          let last =
            let rec next j d =
              if j >= Array.length lines then lnum
              else
                let d, significant = scan_line d lines.(j) in
                if significant then j + 1 else next (j + 1) d
            in
            (* Threading the depth from the pragma's own line keeps a
               multi-line pragma comment's continuation non-significant. *)
            next (i + 1) (fst (scan_line 0 line))
          in
          acc :=
            { rule; file = src.Source.path; line = lnum; first = lnum; last; reason }
            :: !acc)
    lines;
  List.rev !acc

let of_payload (payload : Parsetree.payload) =
  match payload with
  | Parsetree.PStr
      [
        {
          pstr_desc =
            Pstr_eval
              ({ pexp_desc = Pexp_constant (Pconst_string (s, _, _)); _ }, _);
          _;
        };
      ] ->
      Some (parse_spec s)
  | _ -> None

(* Attribute pragmas, read from the typedtree, which keeps each node's
   attributes ([exp_attributes], [vb_attributes], [Tstr_attribute]). *)
let of_attributes ~file (str : Typedtree.structure) =
  let acc = ref [] in
  let add ~scope (attr : Parsetree.attribute) =
    if attr.attr_name.txt = "detlint.allow" then
      let line = attr.attr_loc.Location.loc_start.Lexing.pos_lnum in
      let first, last = scope in
      match of_payload attr.attr_payload with
      | Some (rule, reason) -> acc := { rule; file; line; first; last; reason } :: !acc
      | None ->
          (* Payload that is not a string constant: keep it visible as a
             reasonless (hence invalid, hence flagged) suppression. *)
          acc := { rule = ""; file; line; first; last; reason = "" } :: !acc
  in
  let span (loc : Location.t) = (loc.loc_start.Lexing.pos_lnum, loc.loc_end.Lexing.pos_lnum) in
  let it =
    {
      Tast_iterator.default_iterator with
      expr =
        (fun self e ->
          List.iter (add ~scope:(span e.Typedtree.exp_loc)) e.Typedtree.exp_attributes;
          Tast_iterator.default_iterator.expr self e);
      value_binding =
        (fun self vb ->
          List.iter (add ~scope:(span vb.Typedtree.vb_loc)) vb.Typedtree.vb_attributes;
          Tast_iterator.default_iterator.value_binding self vb);
      structure_item =
        (fun self item ->
          (match item.Typedtree.str_desc with
          | Tstr_attribute attr ->
              (* A floating [@@@detlint.allow ...] covers the rest of the
                 file — the module-scope form. *)
              let line = item.str_loc.Location.loc_start.Lexing.pos_lnum in
              add ~scope:(line, max_int) attr
          | _ -> ());
          Tast_iterator.default_iterator.structure_item self item);
    }
  in
  it.structure it str;
  List.rev !acc

let compare_pos a b =
  match Int.compare a.line b.line with
  | 0 -> String.compare a.rule b.rule
  | c -> c

let collect (src : Source.t) str =
  List.stable_sort compare_pos (of_comments src @ of_attributes ~file:src.Source.path str)

let apply suppressions findings =
  let valid_sups = List.filter valid suppressions in
  let used = Array.make (List.length valid_sups) 0 in
  let indexed = List.mapi (fun i s -> (i, s)) valid_sups in
  let keep (f : Finding.t) =
    match
      List.find_opt
        (fun (_, s) -> s.rule = f.Finding.rule && f.Finding.line >= s.first && f.Finding.line <= s.last)
        indexed
    with
    | Some (i, _) ->
        used.(i) <- used.(i) + 1;
        false
    | None -> true
  in
  let kept = List.filter keep findings in
  (* Invalid suppressions are inert, so their use count is 0; valid ones
     appear in [valid_sups] in traversal order, which the cursor tracks. *)
  let counts =
    let cursor = ref (-1) in
    List.map
      (fun s ->
        if valid s then begin
          incr cursor;
          (s, used.(!cursor))
        end
        else (s, 0))
      suppressions
  in
  (kept, counts)
