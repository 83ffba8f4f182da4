(** Erroneous-state specifications and their audits.

    An erroneous state is the first effect of an intrusion (§III-A): a
    concrete, inspectable corruption of hypervisor state. Audits read
    the actual machine state — page-table bytes via hypervisor-context
    walks, IDT gates, page ownership — to certify that a state holds,
    which is how the paper checks "the erroneous states induced are the
    same" (§VI-C, §VII). *)

type spec =
  | Idt_gate_corrupted of { vector : int }
      (** a gate's handler no longer points at a Xen entry point *)
  | Pud_entry_links_pmd of { pud_mfn : Addr.mfn; index : int; pmd_mfn : Addr.mfn }
      (** the XSA-212-priv state: a forged PMD linked into a PUD *)
  | L2_pse_mapping of { l2_mfn : Addr.mfn; index : int }
      (** the XSA-148 state: a superpage leaf inside a guest L2 *)
  | L4_selfmap_writable of { l4_mfn : Addr.mfn; slot : int }
      (** the XSA-182 state: a writable recursive L4 entry *)
  | Page_kept_after_release of { domid : int; mfn : Addr.mfn }
      (** a guest retains a leaf mapping of a frame it no longer owns *)
  | Interrupt_storm of { domid : int; min_pending : int }
  | Xenstore_tampered of { path : string; legitimate : string }
      (** a management-interface node no longer holds its legitimate
          value (§IX's management-interface intrusion models) *)
  | Vcpu_hung of { domid : int }
      (** a vcpu is stuck inside the hypervisor and pins the pCPU —
          the Induce-a-Hang-State erroneous state *)
  | Wire_grant_writable of { granter : int; gref : int; grantee : int }
      (** the cross-domain grant state: [granter]'s memory-backed wire
          entry [gref] permits {e writable} access to [grantee] — a
          grant the granter never legitimately made (the
          Corrupt-a-Page-Reference intrusion model on the wire table) *)
  | Dm_handler_corrupted
      (** the VENOM state: the device model's FDC request-handler
          pointer no longer holds its legitimate value (§III-B) *)

type audit = { holds : bool; evidence : string list }

val audit : ?dm:Fdc.t -> Hv.t -> spec -> audit
(** Inspect live machine state; [evidence] lists what was read (entry
    values, ownership, walk steps) for the experiment transcript.
    [?dm] attaches the testbed's device-model FDC, which
    {!Dm_handler_corrupted} audits; without it that spec never holds. *)

val describe : spec -> string

val walk_evidence : Hv.t -> cr3:Addr.mfn -> Addr.vaddr -> string list
(** A page-table walk rendered step by step — the audit primitive used
    in §VI-C.3 ("a page-table walk to audit the same erroneous state
    was performed"). *)
