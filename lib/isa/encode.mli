(** Binary encoding and decoding of the supported subset, using the
    standard RV32 instruction formats (R/I/U/S). *)

module Bv = Sqed_bv.Bv

val encode : Insn.t -> Bv.t
(** 32-bit encoding.  Raises [Invalid_argument] on an invalid instruction
    (see {!Insn.valid}). *)

val decode : Bv.t -> Insn.t option
(** Decode a 32-bit word; [None] if it is not a supported instruction. *)

val rd_field : Bv.t -> int
val rs1_field : Bv.t -> int
val rs2_field : Bv.t -> int
val imm_i_field : Bv.t -> int
(** Sign-extended I-type immediate as an OCaml int. *)

val imm_s_field : Bv.t -> int
