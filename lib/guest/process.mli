(** Guest user processes.

    Just enough process machinery for the evaluation's transcripts and
    for attributing vDSO execution: processes have pids, uids and
    command lines; the scheduler tick walks the runnable processes and
    each of them "calls into" the vDSO — which is why one patched page
    is enough to own every process in the domain, root's included. *)

type proc = { pid : int; uid : int; cmdline : string; mutable vdso_calls : int }

type t

val create : unit -> t
(** A fresh table holding the two canonical residents: [init] (pid 1,
    root) and the [xen] user's shell (pid 1000, uid 1000). *)

val reset : t -> unit
(** Back to {!create}'s table, in place. *)

val spawn : t -> uid:int -> cmdline:string -> proc
val kill : t -> pid:int -> bool
val find : t -> pid:int -> proc option
val list : t -> proc list
(** Ascending pid order. *)

val running_uids : t -> int list
(** Distinct uids with at least one live process. *)

val ps_output : t -> string
(** The [ps] rendering the shell builtin prints. *)

val on_tick : t -> unit
(** Every live process makes one vDSO call. *)
