(** A simulated network: listeners and TCP-ish connections between
    hosts.

    Supports the XSA-148-priv use case: the attacker runs a listener on
    a remote host ([nc -l -vvv -p 1234]); the backdoor installed in the
    victim's vDSO opens a reverse shell back to it; commands typed on
    the remote side execute on the victim with the backdoor's uid. *)

type connection = {
  conn_id : int;
  from_host : string;
  from_ip : string;
  to_host : string;
  port : int;
  conn_uid : int;  (** privilege of the shell behind the connection *)
  exec : string -> string;  (** run a command on the connecting side *)
  transcript : Buffer.t;
  conn_trace : Trace.t option;  (** tracer captured at connect time *)
}

type t

val create : unit -> t

val set_tracer : t -> Trace.t -> unit
(** Connections opened after this carry the tracer, so commands typed
    over them are recorded as boundary events. *)

val reset : t -> unit
(** Drop every listener and connection and restart connection ids, in
    place; the tracer stays set. *)

val listen : t -> host:string -> port:int -> unit
(** Start (or restart) a listener; its banner is recorded in the
    transcript of connections it later accepts. *)

val is_listening : t -> host:string -> port:int -> bool

val connect :
  t -> from_host:string -> from_ip:string -> host:string -> port:int -> uid:int ->
  exec:(string -> string) -> (connection, string) result
(** Returns [Error] when nobody listens on [(host, port)]. *)

val run_command : connection -> string -> string
(** Execute a command over the connection and append the exchange to
    the transcript. *)

val connections_to : t -> host:string -> port:int -> connection list
val transcript : connection -> string
