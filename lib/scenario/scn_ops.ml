(* What a backend contributes to scenario execution, beyond the
   {!Substrate.S} it already implements: its scenario ops, declared
   once in one table per kind. Environment symbols are runtime address
   discovery (the testbed's own page-table frames, the IDT base, a VMCS
   address); hypercalls and guest ops are named guest actions;
   payloads are the abusive-functionality library — the OCaml routines
   the use cases call for the parts that are more than a straight line
   of steps; states name the backend's erroneous-state specs.

   Each entry carries its name, what it takes (an exact arity, or an
   env symbol's inclusive argument range) and the code it runs.
   {!Scn_check.check} admits exactly the names and shapes the table
   holds, and {!Scn_vm} runs exactly its code, so the checker and the
   VM cannot disagree. A name the checker would have rejected raises
   {!Trap} in the VM. *)

exception Trap of string
(** Raised by ops (and the VM) on a call the load-time checker would
    have rejected — running an unchecked program is the only way to see
    it. *)

let trap fmt = Printf.ksprintf (fun msg -> raise (Trap msg)) fmt

type ('takes, 'run) op = { name : string; takes : 'takes; run : 'run }

type ('tb, 'spec) table = {
  backend : Scn_bytecode.backend_tag;  (* Xen_only or Kvm_only, never Any *)
  env : (int64 * int64, 'tb -> int64 -> (int64, string) result) op list;
      (** [r = sym arg], [arg] within the inclusive range *)
  hypercalls : (int, 'tb -> int64 array -> int64) op list;
      (** issued from the attacker guest; the guest-visible return code
          (negative errno on refusal) *)
  guest_ops : (int, 'tb -> int64 array -> (unit, string) result) op list;
      (** a guest workload action, effects only *)
  payloads : (int, 'tb -> say:(string -> unit) -> int64 array -> unit) op list;
      (** transcript lines go through [say] in order *)
  states : (int, int64 array -> 'spec) op list;
  host_write : ('tb -> addr:int64 -> int64 -> (unit, Errno.t) result) option;
      (** the compromised-host write primitive ([host-w64]), where the
          backend has one *)
}

let op name takes run = { name; takes; run }

(* The op named [name]; raises [Not_found]. Allocation-free, as the VM
   looks up every named op it executes. *)
let rec find name = function
  | [] -> raise Not_found
  | op :: rest -> if String.equal op.name name then op else find name rest

(* The position of the op named [name] in [ops], or -1. *)
let index name ops =
  let rec go i = function
    | [] -> -1
    | op :: rest -> if String.equal op.name name then i else go (i + 1) rest
  in
  go 0 ops

let names ops = List.map (fun op -> op.name) ops

module type OPS = sig
  module B : Substrate.S

  val ops : (B.t, B.state_spec) table
end
