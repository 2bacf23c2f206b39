(* The detlint test bench: one inline fixture per rule (each tripping exactly
   the intended rule and silenced by exactly its own pragma), the alias and
   shadowing matrix, the suppression bookkeeping, the race / purity /
   type-proved poly-compare matrices, and the self-audits that keep this
   repository's own tree detlint-clean at every --jobs level.

   Every fixture is typechecked in-process against the installed stdlib by
   {!Detlint.Typed.fixture} and audited on its typedtree — the same path the
   runner takes for a source whose cmt is in the index.

   Pragma text inside fixture strings is assembled by concatenation so the
   self-audit's raw-text scanner never mistakes a fixture literal for a real
   suppression of this file. *)

let allow = "(* detlint" ^ ": allow "

let pragma rule = allow ^ rule ^ " -- fixture: intentionally silenced *)"

let reasonless rule = allow ^ rule ^ " *)"

let audit ?rules lines =
  match Detlint.Typed.fixture ~path:"fixture.ml" (String.concat "\n" lines) with
  | Ok src -> Detlint.Runner.check_source ?rules src
  | Error msg -> Alcotest.failf "fixture does not typecheck: %s" msg

let rule_names (findings : Detlint.Finding.t list) =
  List.map (fun (f : Detlint.Finding.t) -> f.Detlint.Finding.rule) findings

(* Each fixture is (rule id, lines, 0-based index of the violating line); the
   pragma variants below splice a comment pragma directly above that line. *)
let fixtures =
  [
    ( "unordered-iteration",
      [ "let f h = Hashtbl.iter (fun k v -> ignore (k + v)) h" ],
      0 );
    ("poly-compare", [ "let xs = List.sort compare [ 2.0; 1.0 ]" ], 0);
    ("physical-equality", [ "let f x y = x == y" ], 0);
    ("ambient-time", [ "let t () = Unix.gettimeofday ()" ], 0);
    ("ambient-random", [ "let r () = Random.int 10" ], 0);
    ("marshal", [ "let f x = Marshal.to_string x []" ], 0);
    ( "atomic-read-modify-write",
      [ "let f a = Atomic.set a (1 + Atomic.get a)" ],
      0 );
    ( "unguarded-shared-mutation",
      [
        "let counter = ref 0";
        "let go () =";
        "  let d = Domain.spawn (fun () -> ignore !counter) in";
        "  counter := 1;";
        "  Domain.join d";
      ],
      3 );
  ]

let splice_at idx line lines =
  List.concat (List.mapi (fun i l -> if i = idx then [ line; l ] else [ l ]) lines)

let test_each_rule_fires () =
  List.iter
    (fun (rule, lines, _) ->
      let findings, _ = audit lines in
      Alcotest.(check (list string))
        (rule ^ " fires exactly once") [ rule ] (rule_names findings);
      let f = List.hd findings in
      let catalogue =
        match Detlint.Rule.find rule with
        | Some r -> r
        | None -> Alcotest.failf "%s missing from catalogue" rule
      in
      Alcotest.(check string)
        (rule ^ " severity")
        (Lint.Severity.to_string catalogue.Detlint.Rule.severity)
        (Lint.Severity.to_string f.Detlint.Finding.severity);
      Alcotest.(check bool) (rule ^ " hint present") true (f.Detlint.Finding.hint <> ""))
    fixtures

let test_own_pragma_silences () =
  List.iter
    (fun (rule, lines, idx) ->
      let findings, sups = audit (splice_at idx (pragma rule) lines) in
      Alcotest.(check (list string)) (rule ^ " silenced") [] (rule_names findings);
      match sups with
      | [ s ] ->
          Alcotest.(check string) (rule ^ " suppression rule") rule s.Detlint.Report.rule;
          Alcotest.(check int) (rule ^ " suppression used") 1 s.Detlint.Report.used;
          Alcotest.(check bool)
            (rule ^ " suppression reason") true (s.Detlint.Report.reason <> "")
      | sups ->
          Alcotest.failf "%s: expected one suppression, got %d" rule (List.length sups))
    fixtures

(* A pragma naming a *different* (valid) rule must not silence the finding:
   suppressions are per-rule, never blanket.  The stale pragma is itself
   called out by unused-suppression. *)
let test_other_pragma_is_inert () =
  let n = List.length fixtures in
  List.iteri
    (fun i (rule, lines, idx) ->
      let other, _, _ = List.nth fixtures ((i + 1) mod n) in
      let findings, sups = audit (splice_at idx (pragma other) lines) in
      Alcotest.(check (list string))
        (rule ^ " survives " ^ other ^ " pragma")
        [ rule; "unused-suppression" ]
        (rule_names findings);
      List.iter
        (fun (s : Detlint.Report.suppression) ->
          Alcotest.(check int) (other ^ " pragma unused") 0 s.Detlint.Report.used)
        sups)
    fixtures

let test_atomic_rmw_negatives () =
  (* A plain store is not a read-modify-write... *)
  let findings, _ = audit [ "let f a = Atomic.set a 0" ] in
  Alcotest.(check (list string)) "plain store clean" [] (rule_names findings);
  (* ...nor is a store computed from a *different* atomic. *)
  let findings, _ = audit [ "let f a b = Atomic.set a (Atomic.get b)" ] in
  Alcotest.(check (list string)) "cross-variable store clean" [] (rule_names findings);
  (* The single-step primitives are the fix, not a finding. *)
  let findings, _ = audit [ "let f a = Atomic.incr a" ] in
  Alcotest.(check (list string)) "fetch-style primitive clean" [] (rule_names findings)

let test_unused_suppression () =
  (* A valid, reasoned pragma that silences nothing is a Warn finding. *)
  let findings, sups = audit [ pragma "marshal"; "let x = 1" ] in
  Alcotest.(check (list string)) "stale pragma warned" [ "unused-suppression" ]
    (rule_names findings);
  (match findings with
  | [ f ] ->
      Alcotest.(check string) "warn severity" "warn"
        (Lint.Severity.to_string f.Detlint.Finding.severity);
      Alcotest.(check bool) "names the stale rule" true
        (f.Detlint.Finding.line = 1 && f.Detlint.Finding.hint <> "")
  | fs -> Alcotest.failf "expected one finding, got %d" (List.length fs));
  (match sups with
  | [ s ] -> Alcotest.(check int) "use count still zero" 0 s.Detlint.Report.used
  | _ -> Alcotest.fail "expected one suppression");
  (* Running a rule subset must not flag the other rules' pragmas... *)
  let subset =
    [ Detlint.Rule.poly_compare; Detlint.Rule.unused_suppression ]
  in
  let findings, _ = audit ~rules:subset [ pragma "marshal"; "let x = 1" ] in
  Alcotest.(check (list string)) "foreign pragma not flagged under subset" []
    (rule_names findings);
  (* ...while a selected rule's stale pragma still is. *)
  let findings, _ = audit ~rules:subset [ pragma "poly-compare"; "let x = 1" ] in
  Alcotest.(check (list string)) "selected stale pragma flagged under subset"
    [ "unused-suppression" ] (rule_names findings);
  (* Without unused-suppression in the run, nothing is flagged. *)
  let findings, _ =
    audit ~rules:[ Detlint.Rule.poly_compare ] [ pragma "poly-compare"; "let x = 1" ]
  in
  Alcotest.(check (list string)) "rule not selected, no warning" [] (rule_names findings);
  (* An invalid (reasonless) pragma is bad-suppression's business, not ours. *)
  let findings, _ = audit [ reasonless "marshal"; "let x = 1" ] in
  Alcotest.(check (list string)) "invalid pragma not double-flagged"
    [ "bad-suppression" ] (rule_names findings)

let test_bad_suppression () =
  (* No reason: inert and itself an error. *)
  let findings, _ = audit [ reasonless "marshal"; "let x = 1" ] in
  Alcotest.(check (list string)) "reasonless" [ "bad-suppression" ] (rule_names findings);
  (* Unknown rule id, with a reason: still inert, still an error. *)
  let findings, _ = audit [ allow ^ "no-such-rule -- because *)"; "let x = 1" ] in
  Alcotest.(check (list string)) "unknown rule" [ "bad-suppression" ] (rule_names findings);
  (* Inertness: the hazard the reasonless pragma points at is NOT silenced. *)
  let findings, _ = audit [ reasonless "marshal"; "let f x = Marshal.to_string x []" ] in
  Alcotest.(check (list string))
    "reasonless pragma suppresses nothing"
    [ "bad-suppression"; "marshal" ]
    (List.sort String.compare (rule_names findings))

let test_attribute_suppressions () =
  (* Expression attribute: covers exactly the attributed node. *)
  let findings, sups =
    audit
      [
        "let t () = (Unix.gettimeofday () [@detlint.allow \"ambient-time -- \
         fixture: attribute form\"])";
      ]
  in
  Alcotest.(check (list string)) "expr attribute silences" [] (rule_names findings);
  Alcotest.(check int) "expr attribute used" 1 (List.hd sups).Detlint.Report.used;
  (* Floating attribute: covers the rest of the file. *)
  let findings, _ =
    audit
      [
        "[@@@detlint.allow \"ambient-random -- fixture: module form\"]";
        "let r () = Random.int 10";
        "let s () = Random.bool ()";
      ]
  in
  Alcotest.(check (list string)) "floating attribute silences all" [] (rule_names findings)

(* A comment pragma documents "the next line"; what it must mean is the next
   *significant* line — blank lines and comment lines between the pragma and
   the expression it vouches for do not break the association, and a
   significant line consumes the scope even when innocent. *)
let test_pragma_scope () =
  let silenced name lines =
    let findings, sups = audit lines in
    Alcotest.(check (list string)) (name ^ ": silenced") [] (rule_names findings);
    match sups with
    | [ s ] -> Alcotest.(check int) (name ^ ": used once") 1 s.Detlint.Report.used
    | sups -> Alcotest.failf "%s: expected one suppression, got %d" name (List.length sups)
  in
  silenced "blank line between"
    [ pragma "ambient-random"; ""; "let r () = Random.int 10" ];
  silenced "comment line between"
    [ pragma "ambient-random"; "(* commentary *)"; "let r () = Random.int 10" ];
  silenced "multi-line comment between"
    [ pragma "ambient-random"; "(* two"; "   lines *)"; "let r () = Random.int 10" ];
  (* An intervening significant line consumes the scope: the violation two
     significant lines down stays a finding and the pragma goes stale. *)
  let findings, _ =
    audit [ pragma "ambient-random"; "let ok = 1"; "let r () = Random.int 10" ]
  in
  Alcotest.(check (list string))
    "significant line consumes the scope"
    [ "ambient-random"; "unused-suppression" ]
    (List.sort String.compare (rule_names findings))

(* Aliases and shadowing: the name rules match resolved paths, so a module
   alias or an [open] cannot hide a hazard, and a user binding that merely
   shares a stdlib name is not one. *)
let check_rules name expected lines =
  let findings, _ = audit lines in
  Alcotest.(check (list string)) name expected (rule_names findings)

let test_alias_matrix () =
  check_rules "module U = Unix" [ "ambient-time" ]
    [ "module U = Unix"; "let t () = U.gettimeofday ()" ];
  check_rules "let module U = Unix in" [ "ambient-time" ]
    [ "let t () = let module U = Unix in U.time ()" ];
  check_rules "module R = Random" [ "ambient-random" ] [ "module R = Random"; "let r () = R.int 3" ];
  check_rules "module M = Marshal" [ "marshal" ]
    [ "module M = Marshal"; "let f x = M.to_string x []" ];
  check_rules "open Hashtbl" [ "unordered-iteration" ]
    [ "open Hashtbl"; "let f h = iter (fun k v -> ignore (k + v)) h" ];
  check_rules "user module Random" []
    [ "module Random = struct let int _ = 4 end"; "let r () = Random.int 3" ];
  check_rules "local (==)" [] [ "let ( == ) = Int.equal"; "let f x y = x == y" ]

(* --- audits over the cmt index ------------------------------------------- *)

(* Under [dune runtest] the working directory is [_build/default/test]; under
   [dune exec] from the checkout root it is the root itself.  Resolve
   root-relative paths against both. *)
let locate p =
  if Sys.file_exists p then p
  else
    let up = Filename.concat ".." p in
    if Sys.file_exists up then up else p

(* The cmt trees live under the dune context root; probe the spellings the
   two working directories produce. *)
let cmt_root () =
  List.find_opt
    (fun d -> Sys.file_exists (Filename.concat d "lib/detlint/.detlint.objs"))
    [ "_build/default"; ".."; Filename.concat ".." "_build/default" ]

let require_cmt_root () =
  match cmt_root () with
  | Some d -> d
  | None -> Alcotest.fail "no cmt directory found (run dune build first)"

(* Write [files] (root-relative path, text) under a fresh temporary root,
   audit that root against the repository's cmt index, and clean up. *)
let audit_scratch files =
  let root = Filename.temp_file "detlint" ".d" in
  Sys.remove root;
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  let paths =
    List.map
      (fun (rel, text) ->
        let p = Filename.concat root rel in
        mkdir_p (Filename.dirname p);
        Out_channel.with_open_bin p (fun oc -> Out_channel.output_string oc text);
        p)
      files
  in
  let result = Detlint.Runner.run ~cmt_dir:(require_cmt_root ()) [ root ] in
  List.iter Sys.remove paths;
  let rec rmdirs d =
    if d <> Filename.dirname root then begin
      (try Sys.rmdir d with Sys_error _ -> ());
      rmdirs (Filename.dirname d)
    end
  in
  List.iter (fun p -> rmdirs (Filename.dirname p)) paths;
  match result with
  | Ok report -> report
  | Error msg -> Alcotest.failf "scratch audit failed to run: %s" msg

let contains ~sub s =
  let n = String.length s and m = String.length sub in
  let rec go i = i + m <= n && (String.sub s i m = sub || go (i + 1)) in
  go 0

let check_unaudited name ~mentions (report : Detlint.Report.t) =
  match report.Detlint.Report.findings with
  | [ f ] ->
      Alcotest.(check string) (name ^ ": rule") "parse-error" f.Detlint.Finding.rule;
      Alcotest.(check string)
        (name ^ ": severity") "error"
        (Lint.Severity.to_string f.Detlint.Finding.severity);
      Alcotest.(check bool)
        (name ^ ": message mentions " ^ mentions)
        true
        (contains ~sub:mentions f.Detlint.Finding.message);
      Alcotest.(check int) (name ^ ": exit code") 1 (Detlint.Runner.exit_code report)
  | fs -> Alcotest.failf "%s: expected one finding, got %d" name (List.length fs)

(* A file with no typedtree cannot be audited; that is a hard error its own
   pragmas cannot silence. *)
let test_parse_error_unsuppressible () =
  check_unaudited "no cmt" ~mentions:"no cmt"
    (audit_scratch [ ("not_built.ml", String.concat "\n" [ pragma "poly-compare"; "let = =" ]) ])

(* A cmt compiled from other text than the file on disk would audit stale
   code and call it clean: a modified copy of a real source is refused, and
   the unmodified copy still audits clean against the same index. *)
let test_stale_cmt_refused () =
  let rel = "lib/sim/delay.ml" in
  let text = In_channel.with_open_bin (locate rel) In_channel.input_all in
  let report = audit_scratch [ (rel, text) ] in
  Alcotest.(check (list string)) "unmodified copy clean" [] (rule_names report.findings);
  check_unaudited "modified copy" ~mentions:"dune build @check"
    (audit_scratch [ (rel, text ^ "\nlet _ = List.sort compare [ 2.0; 1.0 ]\n") ])

(* The race matrix: every escape-analysis verdict the pool/metrics/service
   designs rely on, each fixture tripped (or cleared) by exactly the
   unguarded-shared-mutation rule. *)
let test_race_matrix () =
  check_rules "unguarded captured ref -> finding"
    [ "unguarded-shared-mutation" ]
    [
      "let go () =";
      "  let c = ref 0 in";
      "  let d = Domain.spawn (fun () -> incr c) in";
      "  Domain.join d;";
      "  !c";
    ];
  check_rules "mutex-guarded on both sides -> clean" []
    [
      "let go () =";
      "  let c = ref 0 in";
      "  let m = Mutex.create () in";
      "  let d = Domain.spawn (fun () -> Mutex.protect m (fun () -> incr c)) in";
      "  Mutex.protect m (fun () -> incr c);";
      "  Domain.join d;";
      "  !c";
    ];
  check_rules "atomic on both sides -> clean" []
    [
      "let go () =";
      "  let c = Atomic.make 0 in";
      "  let d = Domain.spawn (fun () -> Atomic.incr c) in";
      "  Atomic.incr c;";
      "  Domain.join d;";
      "  Atomic.get c";
    ];
  check_rules "pre-spawn-only mutation -> clean" []
    [
      "let go () =";
      "  let c = ref 0 in";
      "  c := 41;";
      "  let d = Domain.spawn (fun () -> !c + 1) in";
      "  Domain.join d";
    ];
  check_rules "post-spawn write to captured state -> finding"
    [ "unguarded-shared-mutation" ]
    [
      "let go () =";
      "  let c = ref 0 in";
      "  let d = Domain.spawn (fun () -> !c) in";
      "  c := 1;";
      "  Domain.join d";
    ];
  (* Spawn points and locks are matched on alias-resolved paths. *)
  check_rules "aliased Domain.spawn -> finding"
    [ "unguarded-shared-mutation" ]
    [
      "module D = Domain";
      "let go () =";
      "  let c = ref 0 in";
      "  let d = D.spawn (fun () -> incr c) in";
      "  D.join d;";
      "  !c";
    ];
  check_rules "aliased Mutex.protect on both sides -> clean" []
    [
      "module M = Mutex";
      "let go () =";
      "  let c = ref 0 in";
      "  let m = M.create () in";
      "  let d = Domain.spawn (fun () -> M.protect m (fun () -> incr c)) in";
      "  M.protect m (fun () -> incr c);";
      "  Domain.join d;";
      "  !c";
    ]

(* The escape analysis is interprocedural within the indexed set: a mutation
   reached through a helper is charged to the spawn site that captures the
   state, and a helper that synchronises properly clears it. *)
let test_race_interprocedural () =
  check_rules "mutation via helper -> finding"
    [ "unguarded-shared-mutation" ]
    [
      "let bump r = incr r";
      "let go () =";
      "  let c = ref 0 in";
      "  let d = Domain.spawn (fun () -> bump c) in";
      "  Domain.join d;";
      "  !c";
    ];
  check_rules "atomic helper -> clean" []
    [
      "let bump r = Atomic.incr r";
      "let go () =";
      "  let c = Atomic.make 0 in";
      "  let d = Domain.spawn (fun () -> bump c) in";
      "  Domain.join d;";
      "  Atomic.get c";
    ]

let test_purity_contracts () =
  check_rules "mutating global state -> finding"
    [ "purity-contract" ]
    [ "let counter = ref 0"; "let[@detlint.pure] f x = incr counter; x + 1" ];
  check_rules "mutating an argument -> finding"
    [ "purity-contract" ]
    [ "let[@detlint.pure] f r = r := 1" ];
  check_rules "fresh local state -> clean" []
    [
      "let[@detlint.pure] sum n =";
      "  let acc = ref 0 in";
      "  for i = 1 to n do acc := !acc + i done;";
      "  !acc";
    ];
  (* A lock does not purify: the guarded write is still an effect. *)
  check_rules "mutex-guarded write -> still a finding"
    [ "purity-contract" ]
    [
      "let m = Mutex.create ()";
      "let total = ref 0";
      "let[@detlint.pure] add x = Mutex.protect m (fun () -> total := !total + x)";
    ];
  check_rules "mutation via helper -> finding"
    [ "purity-contract" ]
    [
      "let bump r = r := !r + 1";
      "let total = ref 0";
      "let[@detlint.pure] f x = bump total; x";
    ];
  (* An ambient read trips both the ambient-time rule and the contract —
     same source line, two findings. *)
  check_rules "ambient clock read -> finding"
    [ "ambient-time"; "purity-contract" ]
    [ "let[@detlint.pure] now () = Sys.time ()" ];
  (* The contract reads the same alias-resolved paths as the ambient rules. *)
  check_rules "clock read through an alias -> finding"
    [ "ambient-time"; "purity-contract" ]
    [ "module U = Unix"; "let[@detlint.pure] now () = U.gettimeofday ()" ];
  check_rules "user module named Random -> clean" []
    [ "module Random = struct let int _ = 4 end"; "let[@detlint.pure] r () = Random.int 3" ]

(* Type-proved poly-compare: int comparisons are proved safe with no pragma,
   while what no token scan can see (a float buried in a record, a closure
   inside an option) is caught. *)
let test_typed_poly_compare () =
  check_rules "compare over int list -> proved safe, clean" []
    [ "let xs = List.sort compare [ 3; 1; 2 ]" ];
  check_rules "compare over float list -> finding"
    [ "poly-compare" ]
    [ "let xs = List.sort compare [ 2.0; 1.0 ]" ];
  check_rules "float buried in a record -> finding"
    [ "poly-compare" ]
    [ "type r = { x : float }"; "let cmp (a : r) (b : r) = compare a b" ];
  check_rules "(=) on functions -> finding"
    [ "poly-compare" ]
    [ "let f (g : int -> int) h = g = h" ];
  (* Primitive float *ordering* is a deterministic total function (nan
     answers false consistently); only [compare]'s total-order contract
     breaks on nan.  The classifier keeps the two modes apart. *)
  check_rules "(=) on floats -> ordering mode, clean" []
    [ "let f (a : float) b = a = b" ];
  (* A compare alias left polymorphic cannot be proved; annotating the site
     is the fix — exactly the zoo.ml pattern this PR converted. *)
  check_rules "generalized compare alias -> undecidable, finding"
    [ "poly-compare" ]
    [ "let mycmp = compare" ];
  check_rules "annotated compare alias -> proved safe, clean" []
    [ "let mycmp : int -> int -> int = compare" ];
  (* Set.Make over a float element type orders nan into the tree shape. *)
  check_rules "Set.Make over float elements -> finding"
    [ "poly-compare" ]
    [ "module S = Set.Make (struct type t = float let compare = Float.compare end)" ];
  check_rules "Set.Make over int elements -> clean" []
    [ "module S = Set.Make (struct type t = int let compare = Int.compare end)" ]

(* Comment pragmas govern every rule, including the type-driven ones. *)
let test_pragma_governs_typed_findings () =
  let findings, sups =
    audit [ pragma "poly-compare"; "let xs = List.sort compare [ 2.0; 1.0 ]" ]
  in
  Alcotest.(check (list string)) "typed finding silenced" [] (rule_names findings);
  Alcotest.(check int) "suppression used" 1 (List.hd sups).Detlint.Report.used

(* The acceptance gate, from inside the test suite: this repository's own
   tree is detlint-clean (so every source had a current cmt: a missing or
   stale one is itself an error finding), every suppression carries a
   written reason, and the report is byte-identical at --jobs 1 and
   --jobs 4. *)
let self_audit_roots = List.map locate [ "lib"; "bin"; "test" ]

let run_self_audit ~jobs () =
  match Detlint.Runner.run ~cmt_dir:(require_cmt_root ()) ~jobs self_audit_roots with
  | Ok report -> report
  | Error msg -> Alcotest.failf "self-audit failed to run: %s" msg

let test_self_audit_clean () =
  let report = run_self_audit ~jobs:1 () in
  Alcotest.(check bool) "scanned files" true (report.Detlint.Report.files > 0);
  List.iter
    (fun (f : Detlint.Finding.t) ->
      Alcotest.failf "tree not detlint-clean: %s:%d %s — %s" f.Detlint.Finding.file
        f.Detlint.Finding.line f.Detlint.Finding.rule f.Detlint.Finding.message)
    report.Detlint.Report.findings;
  Alcotest.(check int) "exit code" 0 (Detlint.Runner.exit_code report);
  Alcotest.(check bool)
    "suppressions present" true
    (report.Detlint.Report.suppressions <> []);
  List.iter
    (fun (s : Detlint.Report.suppression) ->
      Alcotest.(check bool)
        (Printf.sprintf "%s:%d suppression has a written reason" s.Detlint.Report.file
           s.Detlint.Report.line)
        true
        (s.Detlint.Report.reason <> ""))
    report.Detlint.Report.suppressions

(* The library gate: every library source has a current cmt (their cmts are
   build dependencies of this very suite), the tree stays clean, and no
   poly-compare suppression survives anywhere — the type classifier *proves*
   the sites the old pragmas merely vouched for. *)
let test_typed_self_audit_lib () =
  let cmt_dir = require_cmt_root () in
  match Detlint.Runner.run ~cmt_dir [ locate "lib" ] with
  | Error msg -> Alcotest.failf "typed self-audit failed: %s" msg
  | Ok report ->
      Alcotest.(check bool) "scanned files" true (report.Detlint.Report.files > 0);
      List.iter
        (fun (f : Detlint.Finding.t) ->
          Alcotest.failf "lib not typed-clean: %s:%d %s — %s" f.Detlint.Finding.file
            f.Detlint.Finding.line f.Detlint.Finding.rule f.Detlint.Finding.message)
        report.Detlint.Report.findings;
      List.iter
        (fun (s : Detlint.Report.suppression) ->
          Alcotest.(check bool)
            (Printf.sprintf "%s:%d is not a poly-compare suppression"
               s.Detlint.Report.file s.Detlint.Report.line)
            true
            (s.Detlint.Report.rule <> "poly-compare"))
        report.Detlint.Report.suppressions

let test_typed_jobs_invariant () =
  let r1 = run_self_audit ~jobs:1 () in
  let r4 = run_self_audit ~jobs:4 () in
  Alcotest.(check int) "typed report exit code" 0 (Detlint.Runner.exit_code r1);
  Alcotest.(check string)
    "typed JSON byte-identical across --jobs"
    (Flp_json.to_string (Detlint.Report.to_json r1))
    (Flp_json.to_string (Detlint.Report.to_json r4));
  Alcotest.(check string)
    "typed rendering byte-identical across --jobs"
    (Format.asprintf "%a" Detlint.Report.pp r1)
    (Format.asprintf "%a" Detlint.Report.pp r4)

let () =
  Alcotest.run "detlint"
    [
      ( "rules",
        [
          Alcotest.test_case "each fixture trips exactly its rule" `Quick
            test_each_rule_fires;
          Alcotest.test_case "own pragma silences" `Quick test_own_pragma_silences;
          Alcotest.test_case "other pragma is inert" `Quick test_other_pragma_is_inert;
          Alcotest.test_case "atomic-rmw negatives" `Quick test_atomic_rmw_negatives;
          Alcotest.test_case "aliases and shadowing" `Quick test_alias_matrix;
        ] );
      ( "suppressions",
        [
          Alcotest.test_case "bad suppressions are errors" `Quick test_bad_suppression;
          Alcotest.test_case "attribute forms" `Quick test_attribute_suppressions;
          Alcotest.test_case "pragma covers next significant line" `Quick
            test_pragma_scope;
          Alcotest.test_case "parse error unsuppressible" `Quick
            test_parse_error_unsuppressible;
          Alcotest.test_case "stale suppressions warned" `Quick
            test_unused_suppression;
        ] );
      ( "typed",
        [
          Alcotest.test_case "race matrix" `Quick test_race_matrix;
          Alcotest.test_case "interprocedural races" `Quick test_race_interprocedural;
          Alcotest.test_case "purity contracts" `Quick test_purity_contracts;
          Alcotest.test_case "type-proved poly-compare" `Quick test_typed_poly_compare;
          Alcotest.test_case "pragmas govern typed findings" `Quick
            test_pragma_governs_typed_findings;
        ] );
      ( "self-audit",
        [
          Alcotest.test_case "repo tree typed-clean" `Quick test_self_audit_clean;
          Alcotest.test_case "stale cmt refused" `Quick test_stale_cmt_refused;
          Alcotest.test_case "typed lib audit clean and fully covered" `Quick
            test_typed_self_audit_lib;
          Alcotest.test_case "typed jobs-invariant report" `Quick
            test_typed_jobs_invariant;
        ] );
    ]
