(** SMT-LIB 2 emission, for debugging and for cross-checking queries against
    external solvers offline. *)

val declarations : Term.t list -> string
(** [declare-const] lines for every free variable of the given terms. *)

val script : Term.t list -> string
(** A complete [QF_BV] script asserting each term, ending in [check-sat]. *)
