(** Direct-paging memory management: validated guest page-table updates.

    PV guests own their page tables but every change goes through the
    hypervisor ([mmu_update] / [update_va_mapping] / pinning), which
    validates entries against the page-type system before writing them
    (§V-A). This module contains the three code-path differences that
    the paper's evaluation turns on:

    - {b XSA-148} (4.6): [validate_entry] at L2 does not reject the PSE
      bit, so a guest can install a 2 MiB superpage over its own
      page-table pages and gain writable page-table access.
    - {b XSA-182} (4.6): the flags-only fast path of [mmu_update]
      wrongly treats RW as a safe flag for L4 entries, so a read-only
      L4 self-map can be upgraded to writable without revalidation.
    - Hardening (4.13): guests may not own L4 slots 257..259 any more
      (checked against {!Layout.guest_may_own_l4_slot}).

    All functions return Xen errnos; they never raise on bad guest
    input. *)

type account = {
  acc_target : Addr.mfn;
  acc_kind : [ `Data_ro | `Data_rw | `Table of int | `Linear ];
}
(** How a present entry is accounted against its target frame. *)

val validate_entry :
  Hv.t -> Domain.t -> level:int -> table_mfn:Addr.mfn -> Pte.t ->
  (account option, Errno.t) result
(** Pure validation of a single new entry (no side effects).
    [None] for a non-present entry. *)

val promote : Hv.t -> Domain.t -> level:int -> Addr.mfn -> (unit, Errno.t) result
(** Give a frame the page-table type of [level], recursively validating
    and accounting its contents (Xen's type promotion). Re-promoting an
    already-typed table just takes another type reference. *)

val put_table_type : Hv.t -> Domain.t -> Addr.mfn -> unit
(** Drop a type reference; when the last one goes, un-account the
    table's entries (Xen's type invalidation). *)

type flush = Flush_none | Flush_all | Flush_page of Addr.mfn * Addr.vaddr
(** What a successful page-table write does to the software TLB
    ({!Paging.Tlb}). The hypercall paths flush — like real Xen — while
    the raw injector path bypasses this module and flushes nothing,
    which is how it leaves stale translations behind. *)

val mmu_update :
  ?flush:flush ->
  Hv.t -> Domain.t -> updates:(int64 * Pte.t) list -> (int, Errno.t) result
(** Apply page-table updates. Each request is [(ptr, value)] where [ptr]
    is the machine address of the entry (low bits: command, only
    MMU_NORMAL_PT_UPDATE here). Returns the number applied; stops at the
    first rejected request. [flush] (default [Flush_all]) runs after
    each applied update. *)

val update_va_mapping :
  Hv.t -> Domain.t -> va:Addr.vaddr -> Pte.t -> (unit, Errno.t) result
(** Update the leaf entry that maps [va] in the caller's current
    address space, with a targeted [invlpg] of just that page
    (UVMF_INVLPG semantics). *)

val pin_table : Hv.t -> Domain.t -> level:int -> Addr.mfn -> (unit, Errno.t) result

val set_baseptr : Hv.t -> Domain.t -> Addr.mfn -> (unit, Errno.t) result
(** MMUEXT_NEW_BASEPTR: switch the domain's page-table root. *)

val decrease_reservation : Hv.t -> Domain.t -> Addr.pfn list -> (int, Errno.t) result
(** Return pages to the hypervisor. A page still referenced (mapped or
    typed) is refused with [EBUSY] — the discipline whose bypass yields
    the Keep-Page-Access erroneous state. Returns pages released. *)

val safe_flags : Version.t -> level:int -> Pte.flag list
(** Flags the fast path may change without revalidation — includes [Rw]
    at L4 exactly on the XSA-182-vulnerable version. *)
