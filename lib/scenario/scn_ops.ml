(* What a backend contributes to scenario execution, beyond the
   {!Substrate.S} it already implements: name resolution. Environment
   symbols are runtime address discovery (the testbed's own page-table
   frames, the IDT base, a VMCS address); hypercalls and guest ops are
   dispatched by name; payloads are the abusive-functionality library —
   the same OCaml routines the hand-written use cases call, exposed to
   scenarios so a ported scenario's transcript stays byte-identical to
   its legacy module.

   The [caps] table must agree with the dispatch functions: everything
   {!Scn_check.check} admits, the functions must resolve. Dispatch of a
   name the checker would have rejected raises {!Trap}. *)

exception Trap of string
(** Raised by dispatch functions (and the VM) on a call the load-time
    checker would have rejected — running an unchecked program is the
    only way to see it. *)

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

module type OPS = sig
  module B : Substrate.S

  val caps : Scn_check.caps

  val env : B.t -> string -> int64 -> (int64, string) result
  (** Resolve an environment symbol with its numeric argument. *)

  val hypercall : B.t -> string -> int64 array -> (int64, string) result
  (** Issue a named hypercall from the attacker guest; returns the
      guest-visible return code (negative errno on refusal). *)

  val guest_op : B.t -> string -> int64 array -> (unit, string) result
  (** A named guest workload action, effects only. *)

  val payload :
    B.t -> say:(string -> unit) -> string -> int64 array -> (unit, string) result
  (** Run a named abusive-functionality routine; transcript lines go
      through [say] in order. *)

  val state : B.t -> string -> int64 array -> (B.state_spec, string) result
  (** Build a backend erroneous-state spec from a name and arguments. *)

  val host_write : B.t -> addr:int64 -> int64 -> (unit, Errno.t) result
  (** The compromised-host write primitive ([host-w64]); only reachable
      when [caps.cap_host_write] admits it. *)
end
