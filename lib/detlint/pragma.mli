(** Explicit, auditable suppressions.

    Three spellings, all naming a catalogue rule id and carrying a written
    reason:

    - a comment line pragma — [(* detlint: allow rule-id -- reason *)] — which
      covers its own line and the next {e significant} line (blank lines and
      comment-only lines in between are skipped, so the pragma may sit above
      an explanatory comment);
    - an expression or binding attribute —
      [[@detlint.allow "rule-id -- reason"]] — covering the attributed node;
    - a floating module attribute — [[@@@detlint.allow "rule-id -- reason"]] —
      covering the rest of the file.

    The separator before the reason may be ["--"], ["-"], [":"] or an
    em-dash.  A suppression with no reason or an unknown rule id is {e inert}
    (suppresses nothing) and reported by the [bad-suppression] rule, so a
    blanket or careless allow can never silently widen.  Every suppression —
    used or not — is listed in the JSON report with its use count. *)

type t = {
  rule : string;  (** catalogue rule id the pragma names *)
  file : string;
  line : int;  (** where the pragma sits *)
  first : int;  (** first line it covers (inclusive) *)
  last : int;  (** last line it covers (inclusive; [max_int] = rest of file) *)
  reason : string;  (** [""] when none was written — the pragma is then inert *)
}

val valid : t -> bool
(** Has a reason and names a known rule. *)

val parse_spec : string -> string * string
(** [parse_spec "rule-id -- reason"] is [("rule-id", "reason")]. *)

val collect : Source.t -> Typedtree.structure -> t list
(** All suppressions in a source, in line order: comment pragmas from the
    raw text, attributes from its typedtree. *)

val apply : t list -> Finding.t list -> Finding.t list * (t * int) list
(** [apply sups findings] removes findings covered by a valid suppression of
    the same rule, and returns the survivors plus every suppression paired
    with how many findings it silenced. *)
