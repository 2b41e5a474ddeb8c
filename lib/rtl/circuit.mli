(** Netlist builder and finalized circuits.

    A {!builder} accumulates nodes; {!finalize} checks that every register
    is driven and produces an immutable {!t} consumed by {!Sim} (concrete
    cycle simulation) and {!Unroll} (symbolic unrolling to SMT terms).

    Signals are plain integers valid only within their builder.  All
    operators are width-checked at construction time. *)

module Bv = Sqed_bv.Bv

type signal = int

type builder

val create : string -> builder
(** [create name] starts an empty netlist. *)

(** {1 Sources} *)

val input : builder -> string -> int -> signal
(** Fresh-per-cycle input port.  Names must be unique. *)

val const : builder -> Bv.t -> signal
val consti : builder -> width:int -> int -> signal
val vdd : builder -> signal
(** Width-1 constant 1. *)

val gnd : builder -> signal
(** Width-1 constant 0. *)

(** {1 Combinational operators} *)

val width : builder -> signal -> int
val not_ : builder -> signal -> signal
val neg : builder -> signal -> signal
val and_ : builder -> signal -> signal -> signal
val or_ : builder -> signal -> signal -> signal
val xor : builder -> signal -> signal -> signal
val add : builder -> signal -> signal -> signal
val sub : builder -> signal -> signal -> signal
val mul : builder -> signal -> signal -> signal

val udiv : builder -> signal -> signal -> signal
(** SMT-LIB convention: division by zero yields all-ones. *)

val urem : builder -> signal -> signal -> signal
(** SMT-LIB convention: remainder by zero yields the dividend. *)

val eq : builder -> signal -> signal -> signal
val neq : builder -> signal -> signal -> signal
val ult : builder -> signal -> signal -> signal
val ule : builder -> signal -> signal -> signal
val slt : builder -> signal -> signal -> signal
val shl : builder -> signal -> signal -> signal
val lshr : builder -> signal -> signal -> signal
val ashr : builder -> signal -> signal -> signal
val mux : builder -> signal -> signal -> signal -> signal
(** [mux b sel on_true on_false]; [sel] must have width 1. *)

val extract : builder -> hi:int -> lo:int -> signal -> signal
val bit : builder -> signal -> int -> signal
val zext : builder -> signal -> int -> signal
val sext : builder -> signal -> int -> signal
val concat : builder -> signal -> signal -> signal
(** [concat b hi lo]. *)

val reduce_and : builder -> signal list -> signal
val onehot_mux : builder -> (signal * signal) list -> default:signal -> signal
(** [onehot_mux b [(sel, v); ...] ~default]: priority mux chain. *)

(** {1 State} *)

val reg : builder -> name:string -> init:Node.init -> width:int -> signal
(** Declare a register; drive it later with {!connect}.  Reading the signal
    yields the current (pre-clock-edge) value. *)

val reg_const : builder -> name:string -> width:int -> int -> signal
(** Register with a concrete initial value. *)

val connect : builder -> signal -> signal -> unit
(** [connect b r next] drives register [r].  Each register must be
    connected exactly once. *)

type memory = {
  read : signal -> signal;  (** asynchronous read port: address -> data *)
  words : signal array;  (** the underlying word registers *)
}

val memory :
  builder ->
  name:string ->
  words:int ->
  word_width:int ->
  init:Node.init ->
  wr_en:signal ->
  wr_addr:signal ->
  wr_data:signal ->
  memory
(** Word-register-based RAM with one synchronous write port and any number
    of asynchronous read ports.  [words] must be a power of two and the
    address width is [log2 words].  A [Symbolic_init] name is suffixed with
    the word index. *)

(** {1 Outputs} *)

val output : builder -> string -> signal -> unit
(** Name a signal as a circuit output / probe.  Names must be unique. *)

(** {1 Finalized circuits} *)

type t

val finalize : builder -> t
(** Raises [Failure] if a register was never connected. *)

val name : t -> string
val node : t -> signal -> Node.t
val node_width : t -> signal -> int
val num_nodes : t -> int
val inputs : t -> (string * int) list
val outputs : t -> (string * signal) list
val output_signal : t -> string -> signal
val registers : t -> signal list
val stats : t -> string
