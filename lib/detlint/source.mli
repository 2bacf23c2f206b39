(** One OCaml source under audit: the path it was scanned under and its raw
    text.  The rules read the compiler's typedtree (see {!Typed}); the raw
    text is kept because comment pragmas live in comments, which the
    compiler discards, and because its digest is what proves the typedtree
    current. *)

type t = {
  path : string;  (** as given; echoed verbatim into findings *)
  text : string;
}

val load : string -> (t, string) result
(** Read a file; [Error] only for I/O failures. *)

val lines : t -> string list
