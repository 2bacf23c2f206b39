(* flp_lint: audit protocols against the FLP §2 model axioms.

   Every analysis in this repository (valences, Lemmas 1-3, the Theorem 1
   adversary) assumes the protocol value actually inhabits the paper's model:
   deterministic automata, write-once output registers, coherent
   canonicalisation witnesses, a conserved message buffer.  This tool makes
   those obligations a CI gate: it runs the Lint rule set over zoo protocols
   and exits nonzero on any error-severity finding.

     flp_lint                          # every rule over every zoo protocol
     flp_lint -p race:2 -p parity      # selected protocols
     flp_lint --rule write-once        # selected rules
     flp_lint --json                   # machine-readable report
     flp_lint --list-rules             # the rule catalogue

   Exit codes: 0 clean, 1 error findings, 2 usage errors (unknown protocol
   or rule, cmdliner errors). *)

let list_rules () =
  List.iter (fun r -> Format.printf "%a@." Lint.Rule.pp r) Lint.Rule.all

let list_protocols () =
  List.iter (fun (e : Flp.Zoo.entry) -> print_endline e.name) Flp.Zoo.all

let resolve_protocols names =
  match names with
  | [] -> Ok (List.map (fun (e : Flp.Zoo.entry) -> e.protocol) Flp.Zoo.all)
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match Flp.Zoo.find name with
            | Some p -> go (p :: acc) rest
            | None -> Error (Printf.sprintf "unknown protocol %S; try --list" name))
      in
      go [] names

let resolve_rules names =
  match names with
  | [] -> Ok Lint.Rule.all
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match Lint.Rule.find name with
            | Some r -> go (r :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "unknown rule %S; available: %s" name
                     (String.concat ", " (Lint.Rule.names ()))))
      in
      go [] names

let run list list_rules_flag protocols rules max_configs seed trials jobs json metrics_file
    trace_file timings =
  if list then list_protocols ()
  else if list_rules_flag then list_rules ()
  else if max_configs < 1 then begin
    Format.eprintf "flp_lint: --max-configs must be at least 1 (got %d)@." max_configs;
    exit 2
  end
  else if jobs < 1 then begin
    Format.eprintf "flp_lint: --jobs must be at least 1 (got %d)@." jobs;
    exit 2
  end
  else
    match (resolve_protocols protocols, resolve_rules rules) with
    | Error msg, _ | _, Error msg ->
        Format.eprintf "flp_lint: %s@." msg;
        exit 2
    | Ok protocols, Ok rules ->
        (* The exit code is computed inside [with_reporting] but the process
           only exits after it returns, so the metrics file and the timing
           table are flushed before termination. *)
        let code =
          Obs.with_reporting ?metrics_file ?trace_file ~timings (fun obs ->
              let opts =
                {
                  Lint.Runner.rules;
                  rule_opts = { Lint.Rules.default_opts with max_configs; seed; trials };
                }
              in
              let reports = Lint.Runner.lint_many ~obs ~opts ~jobs protocols in
              if json then
                print_string (Flp_json.to_string_pretty (Lint.Report.batch_to_json reports))
              else begin
                List.iter (fun r -> Format.printf "%a@.@." Lint.Report.pp r) reports;
                let findings =
                  List.fold_left
                    (fun acc (r : Lint.Report.t) -> acc + List.length r.findings)
                    0 reports
                in
                Format.printf "%d protocols audited, %d findings, %d errors@."
                  (List.length reports) findings
                  (Lint.Report.total_errors reports)
              end;
              Lint.Runner.exit_code reports)
        in
        exit code

open Cmdliner

let protocols_arg =
  Arg.(value & opt_all string []
       & info [ "p"; "protocol" ] ~docv:"NAME"
           ~doc:"Zoo protocol to audit (repeatable; default: the whole zoo).")

let rules_arg =
  Arg.(value & opt_all string []
       & info [ "r"; "rule" ] ~docv:"RULE"
           ~doc:"Rule to run (repeatable; default: all rules; see --list-rules).")

let max_configs_arg =
  Arg.(value & opt int Lint.Rules.default_opts.max_configs
       & info [ "max-configs" ] ~docv:"N"
           ~doc:"Total configuration budget for the lint walk.")

let seed_arg =
  Arg.(value & opt int Lint.Rules.default_opts.seed
       & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed for the commutativity spot-check.")

let trials_arg =
  Arg.(value & opt int Lint.Rules.default_opts.trials
       & info [ "trials" ] ~docv:"N" ~doc:"Commutativity spot-check trials.")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Audit up to N protocols concurrently (reports stay in order).")

let json_arg = Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON.")

let list_arg = Arg.(value & flag & info [ "list" ] ~doc:"List available protocols and exit.")

let list_rules_arg =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write per-rule timers and finding counts as JSON Lines to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a span trace (one JSON object per line) to $(docv).")

let timings_arg =
  Arg.(value & flag
       & info [ "timings" ]
           ~doc:"Print a per-rule wall-time table to stderr (safe with --json: the \
                 report stays on stdout).")

let cmd =
  Cmd.v
    (Cmd.info "flp_lint" ~doc:"Audit protocols against the FLP \xc2\xa72 model axioms")
    Term.(
      const run $ list_arg $ list_rules_arg $ protocols_arg $ rules_arg $ max_configs_arg
      $ seed_arg $ trials_arg $ jobs_arg $ json_arg $ metrics_arg $ trace_arg
      $ timings_arg)

let () = exit (Cmd.eval cmd)
