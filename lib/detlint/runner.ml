module StringSet = Set.Make (String)

let parse_error_rule = "parse-error"

let skip name = name = "" || name.[0] = '.' || name.[0] = '_'

let rec walk acc path =
  match Sys.is_directory path with
  | true ->
      (* detlint: allow unordered-iteration -- entries are sorted with String.compare on the next line, before the order can escape *)
      let entries = Sys.readdir path in
      Array.sort String.compare entries;
      Array.fold_left
        (fun acc name -> if skip name then acc else walk acc (Filename.concat path name))
        acc entries
  | false -> if Filename.check_suffix path ".ml" then path :: acc else acc
  | exception Sys_error _ -> acc

let collect_files roots =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | root :: rest ->
        if Sys.file_exists root then go (walk acc root) rest
        else Error (Printf.sprintf "no such file or directory: %s" root)
  in
  match go [] roots with
  | Error _ as e -> e
  | Ok files ->
      let seen = ref StringSet.empty in
      Ok
        (List.filter
           (fun f ->
             if StringSet.mem f !seen then false
             else begin
               seen := StringSet.add f !seen;
               true
             end)
           files)

let bad_suppressions pragmas =
  let rule = Rule.bad_suppression in
  List.filter_map
    (fun (s : Pragma.t) ->
      if Pragma.valid s then None
      else
        let message =
          if s.Pragma.rule = "" then
            "suppression carries no rule id (expected: allow <rule-id> -- reason)"
          else if not (Rule.known s.Pragma.rule) then
            Printf.sprintf "suppression names unknown rule id %S" s.Pragma.rule
          else Printf.sprintf "suppression for %S carries no written reason" s.Pragma.rule
        in
        Some
          (Finding.v ~rule:rule.Rule.name ~severity:rule.Rule.severity ~file:s.Pragma.file
             ~line:s.Pragma.line ~col:0 ~message ~hint:rule.Rule.hint))
    pragmas

let check_source ?(rules = Rule.all) (src : Typed.source) =
  let pragmas = Pragma.collect src.Typed.file src.Typed.str in
  let selected r = List.exists (fun (x : Rule.t) -> x.Rule.id = r) rules in
  let findings =
    List.stable_sort Finding.compare
      (Trules.check_all ~rules src
      @ if selected Rule.Bad_suppression then bad_suppressions pragmas else [])
  in
  let kept, counts = Pragma.apply pragmas findings in
  (* A valid suppression whose target rule ran here yet silenced nothing is
     stale.  Emitted after Pragma.apply, so the warning itself cannot be
     suppressed away — deleting the dead pragma is the only fix. *)
  let kept =
    if not (selected Rule.Unused_suppression) then kept
    else
      kept
      @ List.filter_map
          (fun ((s : Pragma.t), used) ->
            if
              Pragma.valid s && used = 0
              && List.exists (fun (x : Rule.t) -> x.Rule.name = s.Pragma.rule) rules
            then
              let rule = Rule.unused_suppression in
              Some
                (Finding.v ~rule:rule.Rule.name ~severity:rule.Rule.severity
                   ~file:s.Pragma.file ~line:s.Pragma.line ~col:0
                   ~message:
                     (Printf.sprintf "suppression of %S silenced no finding" s.Pragma.rule)
                   ~hint:rule.Rule.hint)
            else None)
          counts
  in
  let suppressions =
    List.map
      (fun ((s : Pragma.t), used) ->
        {
          Report.rule = s.Pragma.rule;
          file = s.Pragma.file;
          line = s.Pragma.line;
          reason = s.Pragma.reason;
          used;
        })
      counts
  in
  (kept, suppressions)

(* A source that cannot be audited — unreadable, not compiled, or changed
   since it was — is a hard, unsuppressible error: its pragmas cannot speak
   for a typedtree that does not match it. *)
let unaudited ~file message =
  Finding.v ~rule:parse_error_rule ~severity:Lint.Severity.Error ~file ~line:1 ~col:0
    ~message
    ~hint:
      "detlint audits the typedtree the compiler built from this exact text: fix \
       any compile error, then run `dune build @check`"

let run ?(obs = Obs.disabled) ?(rules = Rule.all) ?(jobs = 1) ~cmt_dir roots =
  if jobs < 1 then invalid_arg "Detlint.Runner.run: jobs must be >= 1";
  (* The cmt index — typedtrees, type-declaration tables, effect summaries —
     is built sequentially before any file is audited, so the parallel
     per-file checks are pure lookups into frozen tables and the report
     stays byte-identical at every jobs level. *)
  match Typed.load ~cmt_dir with
  | Error _ as e -> e
  | Ok index -> (
      match collect_files roots with
      | Error _ as e -> e
      | Ok files ->
          let metrics = obs.Obs.metrics in
          let trace = obs.Obs.trace in
          let t_file = Obs.Metrics.timer metrics "detlint.file" in
          let check path =
            Obs.Span.span trace "detlint.file"
              ~attrs:[ ("file", Flp_json.Str path) ]
              (fun () ->
                Obs.Metrics.time t_file (fun () ->
                    match Source.load path with
                    | Error msg -> ([ unaudited ~file:path ("cannot read source: " ^ msg) ], [])
                    | Ok file -> (
                        match Typed.source_of index file with
                        | Ok src -> check_source ~rules src
                        | Error msg -> ([ unaudited ~file:path msg ], []))))
          in
          (* Per-file audits are independent; the pool's [map] keeps results
             in input order, so the merged report is jobs-invariant even
             before the canonical sort. *)
          let results =
            if jobs = 1 then List.map check files
            else
              Parallel.Pool.with_pool ~metrics ~jobs (fun pool ->
                  Array.to_list (Parallel.Pool.map pool check (Array.of_list files)))
          in
          let findings = List.concat_map fst results in
          let suppressions = List.concat_map snd results in
          List.iter
            (fun (f : Finding.t) ->
              Obs.Metrics.incr
                (Obs.Metrics.counter metrics ("detlint.findings." ^ f.Finding.rule))
                1)
            findings;
          Obs.Metrics.incr
            (Obs.Metrics.counter metrics "detlint.suppressed")
            (List.fold_left (fun acc (s : Report.suppression) -> acc + s.Report.used) 0 suppressions);
          Ok
            (Report.canonical
               {
                 Report.roots;
                 files = List.length files;
                 rules_run = List.map (fun (r : Rule.t) -> r.Rule.name) rules;
                 findings;
                 suppressions;
               }))

let exit_code report = if Report.error_count report > 0 then 1 else 0
