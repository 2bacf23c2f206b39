type suppression = {
  rule : string;
  file : string;
  line : int;
  reason : string;
  used : int;
}

type t = {
  roots : string list;
  files : int;
  rules_run : string list;
  findings : Finding.t list;
  suppressions : suppression list;
}

let count sev t =
  List.length
    (List.filter (fun (f : Finding.t) -> Lint.Severity.equal f.Finding.severity sev) t.findings)

let error_count t = count Lint.Severity.Error t

let warn_count t = count Lint.Severity.Warn t

let suppressed_count t = List.fold_left (fun acc s -> acc + s.used) 0 t.suppressions

let compare_suppression a b =
  match String.compare a.file b.file with
  | 0 -> (
      match Int.compare a.line b.line with
      | 0 -> String.compare a.rule b.rule
      | c -> c)
  | c -> c

(* Canonical order — file/line/col/rule for findings, file/line/rule for
   suppressions — so the report is byte-identical whatever order files were
   scanned or rules were scheduled in. *)
let canonical t =
  {
    t with
    findings = List.stable_sort Finding.compare t.findings;
    suppressions = List.stable_sort compare_suppression t.suppressions;
  }

let pp ppf t =
  let verdict =
    match error_count t with
    | 0 -> "clean"
    | 1 -> "1 error"
    | k -> Printf.sprintf "%d errors" k
  in
  Format.fprintf ppf "@[<v>== flp-detlint: %s (%d files, %d rules, %d findings, %d \
                      suppressions silencing %d) =="
    verdict t.files (List.length t.rules_run) (List.length t.findings)
    (List.length t.suppressions) (suppressed_count t);
  List.iter (fun f -> Format.fprintf ppf "@,@[<v>%a@]" Finding.pp f) t.findings;
  Format.fprintf ppf "@]"

let suppression_to_json s =
  Flp_json.Obj
    [
      ("rule", Flp_json.Str s.rule);
      ("file", Flp_json.Str s.file);
      ("line", Flp_json.Int s.line);
      ("reason", Flp_json.Str s.reason);
      ("used", Flp_json.Int s.used);
    ]

let to_json t =
  Flp_json.Obj
    [
      ("version", Flp_json.Int 3);
      ("tool", Flp_json.Str "flp-detlint");
      ("roots", Flp_json.List (List.map (fun r -> Flp_json.Str r) t.roots));
      ("files", Flp_json.Int t.files);
      ("rules", Flp_json.List (List.map (fun r -> Flp_json.Str r) t.rules_run));
      ("findings", Flp_json.List (List.map Finding.to_json t.findings));
      ("errors", Flp_json.Int (error_count t));
      ("warnings", Flp_json.Int (warn_count t));
      ("suppressions", Flp_json.List (List.map suppression_to_json t.suppressions));
      ("suppressed", Flp_json.Int (suppressed_count t));
    ]
