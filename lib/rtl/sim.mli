(** Cycle-accurate concrete simulation of a finalized circuit.

    Each {!cycle} evaluates the combinational fabric from the current
    register state and the supplied inputs, returns all outputs as observed
    during that cycle (before the clock edge), then commits register
    next-values. *)

module Bv = Sqed_bv.Bv

type t

val create : ?initial:(string -> Bv.t option) -> Circuit.t -> t
(** [initial] supplies values for [Symbolic_init] registers (by their init
    name); unknown names default to zero. *)

val cycle : t -> (string * Bv.t) list -> (string * Bv.t) list
(** Run one clock cycle with the given input valuation (all inputs must be
    supplied) and return the outputs. *)

val reg_value : t -> string -> Bv.t
(** Current value of a register, by register name. *)

val run : t -> (string * Bv.t) list list -> (string * Bv.t) list list
(** Convenience: run a list of cycles, collecting outputs. *)
