(** The detlint rule catalogue.

    Mirrors {!Lint.Rule}: pure metadata — stable kebab-case id, severity,
    one-line synopsis, full doc, fix-it hint — with the implementations
    living in {!Trules}.  The ids are part of the tool's interface: they are
    what suppressions name, what [--rule] selects, and what the JSON report
    records, so they must never change meaning. *)

type id =
  | Unordered_iteration
  | Poly_compare
  | Physical_equality
  | Ambient_time
  | Ambient_random
  | Marshal
  | Unguarded_shared_mutation
  | Atomic_rmw
  | Purity_contract
  | Bad_suppression
  | Unused_suppression

type t = {
  id : id;
  name : string;
  severity : Lint.Severity.t;
  synopsis : string;
  doc : string;
  hint : string;
}

val unordered_iteration : t

val poly_compare : t

val physical_equality : t

val ambient_time : t

val ambient_random : t

val marshal : t

val unguarded_shared_mutation : t

val atomic_rmw : t
(** [Warn]-severity: [Atomic.set a (f (Atomic.get a))] lost-update shapes;
    each step is atomic but the pair is not. *)

val purity_contract : t
(** [Error]-severity: a [@detlint.pure] binding that (transitively) mutates
    non-local state or reaches an ambient effect. *)

val bad_suppression : t

val unused_suppression : t
(** [Warn]-severity: a valid suppression whose target rule ran on its file
    yet silenced nothing.  Computed by the runner from {!Pragma.apply} use
    counts (it needs the whole file's findings, not a single tree scan). *)

val all : t list
(** Catalogue order (also the [--list-rules] order). *)

val find : string -> t option

val names : unit -> string list

val known : string -> bool
(** Whether the id names a catalogue rule — what suppressions are checked
    against. *)

val pp : Format.formatter -> t -> unit
