(** The Xen x86-64 virtual-address-space layout.

    Xen segments the 48-bit address space into regions with fixed roles
    and per-region guest permissions (§V-A of the paper: "the range
    0xffff800000000000 - 0xffff807fffffffff is read-only for guest
    domains"). On real hardware the policy materializes as what Xen does
    or does not map; the simulator expresses it as a region table the CPU
    consults on guest-privilege accesses.

    The [hardened] flag models the post-XSA-213 hardening shipped in Xen
    4.9+ (present in 4.13, absent in 4.6/4.8): the 512 GiB RWX
    linear-page-table window was removed, so guest-level accesses to
    [0xffff8040_00000000 ..] and to the extra self-map slots fault even
    when page-table bytes would otherwise translate them. *)

type access = No_access | Read_only | Read_write

type region =
  | Guest_low  (** slots 0..255: guest user space and low mappings *)
  | M2p  (** machine-to-physical table, guest read-only *)
  | Linear_pt  (** pre-hardening 512 GiB linear-PT window *)
  | Xen_extra  (** historically guest-mappable extra slots (257..259) *)
  | Xen_private  (** hypervisor text/heap virtual area *)
  | Direct_map  (** Xen's direct map of all physical memory *)
  | Guest_kernel  (** PV guest kernel area (slots 272..511) *)

val region_of_vaddr : Addr.vaddr -> region

val region_of_bits : int -> region
(** {!region_of_vaddr} of an address held in an int: only bits 0..47
    are read, so the address need not be canonical. *)

val region_name : region -> string

val guest_access : hardened:bool -> Addr.vaddr -> access
(** Strongest access a guest-privilege memory reference may perform at
    this address, before the page walk is even consulted. *)

val region_access : hardened:bool -> region -> access
(** The strongest guest access anywhere in a region:
    [guest_access ~hardened va = region_access ~hardened (region_of_vaddr va)]. *)

val hypervisor_access : Addr.vaddr -> access

(** {1 Region constants} *)

val m2p_base : Addr.vaddr
val linear_pt_base : Addr.vaddr
(** 0xffff8040_00000000 — the window the XSA-212-priv exploit installs
    its payload mappings into. *)

val linear_pt_end : Addr.vaddr
val xen_extra_base : Addr.vaddr
val xen_extra_slot : int
(** The L4 slot (258) the XSA-182 PoC uses for its self-mapping entry. *)

val directmap_base : Addr.vaddr
val guest_kernel_base : Addr.vaddr
val m2p_slot : int
(** L4 slot 256, shared by the M2P table and the linear-PT window. *)

val directmap_of_maddr : Addr.maddr -> Addr.vaddr
(** Xen's linear address for a machine address. *)

val maddr_of_directmap : Addr.vaddr -> Addr.maddr option
(** Inverse of [directmap_of_maddr]; [None] outside the direct map. *)

val is_xen_l4_slot : int -> bool
(** True for L4 slots reserved to Xen in every version (M2P/linear slot,
    private area, direct map). Guests may never install these. *)

val guest_may_own_l4_slot : hardened:bool -> int -> bool
(** Whether page-table validation lets a guest install its own L4 entry
    in this slot. Pre-hardening, the extra slots (257..259) were
    permitted — the latitude the XSA-182 PoC needs; hardened versions
    restrict guests to their own low and kernel slots. *)
