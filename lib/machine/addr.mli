(** Address types and arithmetic for the simulated x86-64 machine.

    The simulator distinguishes, exactly as Xen does:
    - {b machine addresses} ([maddr]): byte addresses into host physical
      memory;
    - {b machine frame numbers} ([mfn]): physical 4 KiB frame indices;
    - {b pseudo-physical frame numbers} ([pfn]): the guest's view of its
      own contiguous "physical" memory, translated through the P2M;
    - {b virtual addresses} ([vaddr]): 48-bit canonical x86-64 virtual
      addresses decomposed by the 4-level page walk. *)

type maddr = int64
(** Machine (host physical) byte address. *)

type vaddr = int64
(** Canonical 48-bit virtual address, sign-extended to 64 bits. *)

type mfn = int
(** Machine frame number: [maddr / page_size]. *)

type pfn = int
(** Guest pseudo-physical frame number. *)

val page_shift : int
(** 12: pages are 4 KiB. *)

val page_size : int
(** [1 lsl page_shift]. *)

val page_mask : int64
(** Mask selecting the in-page offset bits. *)

val superpage_size : int
(** Size in bytes of a 2 MiB level-2 superpage mapping. *)

val entries_per_table : int
(** 512 entries per page-table page. *)

val maddr_of_mfn : mfn -> maddr
val mfn_of_maddr : maddr -> mfn

val page_offset : int64 -> int
(** Offset of an address within its page. *)

val is_page_aligned : int64 -> bool

val align_down : int64 -> int64
(** Round an address down to its page boundary. *)

val align_up : int64 -> int64
(** Round an address up to the next page boundary (identity if aligned). *)

val canonical : int64 -> vaddr
(** Sign-extend bit 47 to produce a canonical virtual address. *)

val is_canonical : vaddr -> bool

val l4_index : vaddr -> int
val l3_index : vaddr -> int
val l2_index : vaddr -> int
val l1_index : vaddr -> int
(** Page-walk indices, each in [0, 511]. *)

val of_indices : l4:int -> l3:int -> l2:int -> l1:int -> offset:int -> vaddr
(** Rebuild a canonical virtual address from walk indices; inverse of the
    [l*_index]/[page_offset] decomposition. *)

val l4_slot_base : int -> vaddr
(** Base virtual address of the 512 GiB region covered by an L4 slot. *)

val pp_vaddr : Format.formatter -> vaddr -> unit
