(* flp_detlint: audit this repository's own OCaml sources against its
   bit-identical-replay guarantee.

   Every result the repo reports — valency tables, the Lemma 1-3 checks, the
   Theorem 1 adversary, the benchmark baselines — assumes runs are byte-
   identical at every --jobs level and fully determined by the seed.  FLP §2
   demands the same of its processes: deterministic automata with all
   nondeterminism made explicit.  This tool holds the sources to that axiom
   statically: unordered iteration, polymorphic compare, physical equality,
   ambient time/randomness, Marshal, torn atomic updates, data races and
   purity contracts.

   The audit reads the .cmt files a dune build leaves under --cmt-dir
   (default _build/default) and checks each source on its typedtree:
   identifiers by resolved path (module aliases seen through), poly-compare
   by the instantiated comparison type, unguarded-shared-mutation as an
   interprocedural closure-escape analysis with a lockset classifier, and
   [@detlint.pure] contracts.  A source with no cmt, or whose cmt is older
   than its text, is an unsuppressible error: run `dune build @check` first.

     dune build @check                   # materialise every .cmt
     flp_detlint lib bin test            # audit the tree (the CI gate)
     flp_detlint lib --rule poly-compare # one rule
     flp_detlint lib bin test --json     # machine-readable report on stdout
     flp_detlint lib bin test --out r.json --jobs 4
     flp_detlint --list-rules            # the rule catalogue

   Suppressions are explicit and auditable; see the README.  Exit codes:
   0 clean, 1 error findings, 2 usage errors. *)

let list_rules () =
  List.iter (fun r -> Format.printf "%a@." Detlint.Rule.pp r) Detlint.Rule.all

let resolve_rules names =
  match names with
  | [] -> Ok Detlint.Rule.all
  | names ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | name :: rest -> (
            match Detlint.Rule.find name with
            | Some r -> go (r :: acc) rest
            | None ->
                Error
                  (Printf.sprintf "unknown rule %S; available: %s" name
                     (String.concat ", " (Detlint.Rule.names ()))))
      in
      go [] names

let run list_rules_flag roots rules jobs json out metrics_file trace_file timings cmt_dir =
  if list_rules_flag then list_rules ()
  else if jobs < 1 then begin
    Format.eprintf "flp_detlint: --jobs must be at least 1 (got %d)@." jobs;
    exit 2
  end
  else if roots = [] then begin
    Format.eprintf "flp_detlint: no roots given; try: flp_detlint lib bin test@.";
    exit 2
  end
  else
    match resolve_rules rules with
    | Error msg ->
        Format.eprintf "flp_detlint: %s@." msg;
        exit 2
    | Ok rules ->
        let code =
          Obs.with_reporting ?metrics_file ?trace_file ~timings (fun obs ->
              match Detlint.Runner.run ~obs ~rules ~jobs ~cmt_dir roots with
              | Error msg ->
                  Format.eprintf "flp_detlint: %s@." msg;
                  2
              | Ok report ->
                  let doc () =
                    Detlint.Report.to_json report |> Flp_json.to_string_pretty
                  in
                  (match out with
                  | Some file -> Out_channel.with_open_bin file (fun oc ->
                        Out_channel.output_string oc (doc ()))
                  | None -> ());
                  if json then print_string (doc ())
                  else Format.printf "%a@." Detlint.Report.pp report;
                  Detlint.Runner.exit_code report)
        in
        exit code

open Cmdliner

let roots_arg =
  Arg.(value & pos_all string []
       & info [] ~docv:"ROOT"
           ~doc:"Directory roots (or single .ml files) to audit, e.g. lib bin test.")

let rules_arg =
  Arg.(value & opt_all string []
       & info [ "r"; "rule" ] ~docv:"RULE"
           ~doc:"Rule to run (repeatable; default: all rules; see --list-rules).")

let jobs_arg =
  Arg.(value & opt int 1
       & info [ "j"; "jobs" ] ~docv:"N"
           ~doc:"Audit up to N files concurrently (the report is identical at any N).")

let json_arg =
  Arg.(value & flag & info [ "json" ] ~doc:"Emit the report as JSON on stdout.")

let out_arg =
  Arg.(value & opt (some string) None
       & info [ "out" ] ~docv:"FILE"
           ~doc:"Also write the JSON report to $(docv) (the CI artifact).")

let list_rules_arg =
  Arg.(value & flag & info [ "list-rules" ] ~doc:"List the rule catalogue and exit.")

let metrics_arg =
  Arg.(value & opt (some string) None
       & info [ "metrics" ] ~docv:"FILE"
           ~doc:"Write per-file timers and finding counts as JSON Lines to $(docv).")

let trace_arg =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a span trace (one JSON object per line) to $(docv).")

let cmt_dir_arg =
  Arg.(value & opt string "_build/default"
       & info [ "cmt-dir" ] ~docv:"DIR"
           ~doc:"Directory scanned (recursively) for the .cmt files `dune build \
                 @check` produces; every audited source must have a current one.")

let timings_arg =
  Arg.(value & flag
       & info [ "timings" ]
           ~doc:"Print a wall-time table to stderr (safe with --json: the report \
                 stays on stdout).")

let cmd =
  Cmd.v
    (Cmd.info "flp_detlint"
       ~doc:"Audit the repository's OCaml sources for determinism and data-race hazards")
    Term.(
      const run $ list_rules_arg $ roots_arg $ rules_arg $ jobs_arg $ json_arg $ out_arg
      $ metrics_arg $ trace_arg $ timings_arg $ cmt_dir_arg)

let () = exit (Cmd.eval cmd)
