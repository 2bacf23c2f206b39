(** Scan driver: directory walk, per-file audit, jobs-invariant merge.

    Files under the given roots are enumerated in sorted order, audited
    independently (optionally over a {!Parallel.Pool}, which preserves
    input order), and merged into one canonical {!Report.t} — so the report
    is byte-identical at every [--jobs] level, the same guarantee the rules
    themselves enforce on the rest of the tree. *)

val collect_files : string list -> (string list, string) result
(** [.ml] files under the roots (each a directory or a single file), sorted
    within each root, deduplicated, dot- and underscore-prefixed names
    (\[_build\]…) skipped.  [Error] when a root does not exist. *)

val check_source :
  ?rules:Rule.t list -> Typed.source -> Finding.t list * Report.suppression list
(** Audit one source on its typedtree: run the rules, apply its
    suppressions (comment pragmas from the text, attributes from the
    typedtree), and append an unsuppressible [Warn]
    {!Rule.unused_suppression} finding for every valid suppression whose
    target rule was selected yet silenced nothing.  The test fixtures' entry
    point (with {!Typed.fixture}). *)

val run :
  ?obs:Obs.t ->
  ?rules:Rule.t list ->
  ?jobs:int ->
  cmt_dir:string ->
  string list ->
  (Report.t, string) result
(** Audit every source under the roots.  The cmt index is built from
    [cmt_dir] first (sequentially — per-file checks stay pure lookups).  A
    source with no cmt, or whose cmt was compiled from different text, gets
    one unsuppressible [parse-error] finding instead of an audit.  [Error]
    only for usage problems (missing root, unreadable or empty cmt
    directory); source-level problems are findings. *)

val exit_code : Report.t -> int
(** 1 when any error-severity finding survived, else 0 — the CI gate. *)
