(** A small two-way assembler for the supported subset.

    Syntax is the usual one: ["ADD x1, x2, x3"], ["ADDI x4, x5, -12"],
    ["LW x1, 4(x2)"], ["SW x3, 0(x0)"], ["LUI x1, 0x1f"].  Mnemonics are
    case-insensitive; [#] starts a comment. *)

val parse_insn : string -> (Insn.t, string) result
val parse_program : string -> (Insn.t list, string) result
(** One instruction per line; blank lines and comments are skipped. *)
