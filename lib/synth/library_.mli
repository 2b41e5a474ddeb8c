(** The shipped component library (Section 6.1: 29 components — 10 NIC,
    10 DIC, 9 CIC — collectively covering the RV32IM classes), plus one
    immediate-input form ([IMMIN]) that materializes the original
    instruction's immediate field into a register; the paper describes this
    "first form" of I-type components in Section 4.1, and it is required to
    synthesize I-type originals such as XORI whose immediate is universally
    quantified. *)

val nics : Component.t list
(** ADD SUB SLL SLT SLTU XOR SRL SRA OR AND (all operands as inputs). *)

val dics : Component.t list
(** ADDI SLTI SLTIU XORI ORI ANDI SLLI SRLI SRAI LUI with the immediate as
    internal attribute. *)

val cics : Component.t list
(** NEG NOT MULC ADD3 ANDN SMEAR SRACORE MULHUC MHCORR — composites chosen,
    per the paper's CIC rationale, so that every evaluated original
    instruction (including SRA and MULH) has a structurally different
    equivalent within three components. *)

val default : Component.t list
(** [nics @ dics @ cics @ [imm_input]] — 30 components. *)

val find : string -> Component.t
(** Look up a component by label; raises [Not_found]. *)

val specs : Component.spec list
(** The original-instruction cases used in the synthesis evaluation
    (Fig. 3): the Table-1 instruction list minus SW (memory instructions
    are transformed by a dedicated rule, not synthesized). *)

val spec : string -> Component.spec
(** Look up a spec by mnemonic (any R-type or I-type ALU instruction). *)
