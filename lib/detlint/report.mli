(** The whole-run detlint report.

    Same gating shape as {!Lint.Report} — error counts drive the exit code,
    one JSON object drives CI — but findings are source positions and the
    report additionally inventories {e every} suppression with its use
    count, so a silently-broadening allow list shows up in review. *)

type suppression = {
  rule : string;
  file : string;
  line : int;
  reason : string;
  used : int;  (** findings this pragma silenced in this run *)
}

type t = {
  roots : string list;  (** as given on the command line *)
  files : int;  (** sources scanned *)
  rules_run : string list;
  findings : Finding.t list;  (** survivors, after suppression *)
  suppressions : suppression list;
}

val error_count : t -> int

val warn_count : t -> int

val suppressed_count : t -> int
(** Total findings silenced by suppressions. *)

val canonical : t -> t
(** Sort findings (file/line/col/rule) and suppressions (file/line/rule)
    into the canonical order; {!pp} and {!to_json} assume it has been
    applied. *)

val pp : Format.formatter -> t -> unit

val to_json : t -> Flp_json.t
