(** The three Xen versions of the paper's evaluation and the
    vulnerability/hardening differences between them.

    Each predicate corresponds to one concrete code-path difference; the
    rest of the hypervisor is identical across versions, mirroring the
    paper's controlled experimental environment ("the only difference was
    the Xen version"). *)

type t = V4_6 | V4_8 | V4_13

val all : t list
val to_string : t -> string
(** "4.6", "4.8", "4.13" *)

val banner : t -> string
(** The version banner printed in crash dumps, e.g.
    ["Xen-4.6.0 x86_64 debug=y Not tainted"]. *)

val of_string : string -> t option

val xsa148_fixed : t -> bool
(** L2 validation checks the PSE bit (fixed in 4.7+). *)

val xsa182_fixed : t -> bool
(** The L4 update fast path no longer treats RW as a safe flag
    (fixed in 4.7+). *)

val xsa212_fixed : t -> bool
(** [memory_exchange] bounds-checks the output array address
    (fixed in 4.9+; backported to the 4.8 line used in the paper). *)

val hardened_address_space : t -> bool
(** Post-XSA-213 hardening (4.9+): the 512 GiB RWX linear-page-table
    window and the extra guest-mappable L4 slots were removed. *)

val grant_frame_ownership_checked : t -> bool
(** [validate_l1] checks that a Xen-owned grant-table frame belongs to
    the mapping domain before admitting a writable mapping. 4.6 admits
    any domain's grant frames — a guest can rewrite a co-resident
    domain's wire entries and forge grants that were never made. *)

val venom_fixed : t -> bool
(** The device-model FDC bounds-checks FIFO input (CVE-2015-3456
    "VENOM", fixed in the QEMU shipped from 4.7 on). *)

val dm_handler_validation : t -> bool
(** The device model validates its dispatch handler against a known-good
    value before each command kick (a 4.13-era hardening), shielding
    guests from a corrupted handler even when corruption lands. *)
