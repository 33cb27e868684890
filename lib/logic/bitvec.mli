(** Packed bit vectors used for 64-way parallel logic simulation.

    A [Bitvec.t] holds [length] bits packed into 64-bit words. Bit [i] of the
    vector is bit [i mod 64] of word [i / 64]. Logical operations are
    word-parallel, which is what makes 640 K-pattern power estimation cheap. *)

type t

val create : int -> t
(** [create n] is an all-zero vector of [n] bits. *)

val length : t -> int

val words : t -> int64 array
(** Underlying storage (shared, not copied). Bits beyond [length] in the last
    word are kept at zero by all operations of this module. *)

val get : t -> int -> bool
val set : t -> int -> bool -> unit

val fill_random : Prng.t -> t -> unit
(** Overwrite every bit with an independent fair coin flip. Draws exactly
    one {!Prng.next64} per storage word (i.e. [max 1 (words)]), in word
    order — parallel fills rely on this draw count to split the stream
    with {!Prng.jump}. *)

val clamp : t -> unit
(** Re-zero the bits past [length] in the last word. Only needed by code
    that writes {!words} directly (the flat simulation kernels); every
    operation of this module already maintains the invariant. *)

val tail_mask : int -> int64
(** [tail_mask n] keeps the bits of the last storage word of an [n]-bit
    vector that lie below [n] (all bits when [n] is a multiple of 64). *)

val logand : t -> t -> t
val logor : t -> t -> t
val logxor : t -> t -> t
val lognot : t -> t

val equal : t -> t -> bool
val popcount : t -> int

val transitions : t -> int
(** [transitions v] counts indices [i] with [get v i <> get v (i+1)] — the
    number of toggles along the bit sequence, used for switching-activity
    estimation when bits encode consecutive simulation cycles. *)

val copy : t -> t

val pp : Format.formatter -> t -> unit
