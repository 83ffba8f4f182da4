(** FNV-1a, 64-bit: the one hash behind the hypercall and console
    record digests, coverage-map hashes and slots, and the page
    integrity baselines. *)

val offset : int64
(** The FNV offset basis, the hash of no input. *)

val int : int64 -> int -> int64
(** [int h v] folds the 8 little-endian bytes of [v] into [h]. *)

val bytes : bytes -> int64
(** The hash of every byte of the buffer. Allocates nothing but its
    result. *)

val string : string -> int64
