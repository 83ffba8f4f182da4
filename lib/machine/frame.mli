(** A single 4 KiB frame of simulated physical memory.

    Frames hold raw bytes. Page-table pages, the IDT, guest kernel pages
    and attacker payloads all live in frames, so forged data is
    indistinguishable from legitimate data — exactly the property the
    exploits rely on. *)

type t = private bytes
(** Readable in place as [bytes] (the page walker decodes entries
    straight from the frame); built only through this module. *)

val create : unit -> t
(** A zero-filled frame. *)

val copy : t -> t

val get_u8 : t -> int -> int
val set_u8 : t -> int -> int -> unit

val get_u64 : t -> int -> int64
(** Little-endian 64-bit load at byte offset [off] (0 <= off <= 4088). *)

val set_u64 : t -> int -> int64 -> unit

val set_u64_of_int : t -> int -> int -> unit
(** [set_u64_of_int t off v] is [set_u64 t off (Int64.of_int v)] without
    boxing the word. *)

val get_entry : t -> int -> int64
(** Read page-table entry [i] (0..511): [get_u64 t (8*i)]. *)

val set_entry : t -> int -> int64 -> unit

val iter_present : t -> (int -> int64 -> unit) -> unit
(** [iter_present t f] calls [f i entry] for every present page-table
    entry, probing the present bit with byte loads so absent slots (the
    bulk of most tables) cost no decode and no call. *)

val read_bytes : t -> int -> int -> bytes
(** [read_bytes t off len] copies [len] bytes starting at [off]. *)

val write_bytes : t -> int -> bytes -> unit
val write_string : t -> int -> string -> unit
val fill : t -> char -> unit

val blit_to_bytes : t -> int -> bytes -> int -> int -> unit
(** [blit_to_bytes t off dst dpos len] copies frame bytes out without an
    intermediate allocation (the bulk read path). *)

val blit_from_bytes : bytes -> int -> t -> int -> int -> unit
(** [blit_from_bytes src spos t off len] copies into the frame (the bulk
    write path). *)

val restore_from : t -> src:t -> unit
(** Overwrite the whole frame with [src]'s bytes — how a first write
    fills recycled storage with the frozen template's frame. *)

val equal : t -> t -> bool
val to_bytes : t -> bytes
