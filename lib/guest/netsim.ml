type connection = {
  conn_id : int;
  from_host : string;
  from_ip : string;
  to_host : string;
  port : int;
  conn_uid : int;
  exec : string -> string;
  transcript : Buffer.t;
  conn_trace : Trace.t option;
}

type t = {
  mutable listeners : (string * int) list;
  mutable connections : connection list;
  mutable next_id : int;
  mutable tracer : Trace.t option;
}

let create () = { listeners = []; connections = []; next_id = 0; tracer = None }
let set_tracer t tr = t.tracer <- Some tr

let reset t =
  t.listeners <- [];
  t.connections <- [];
  t.next_id <- 0

(* Opening a listener is a management-plane input, so it is a boundary
   event — emitted here (not in Testbed) so that replaying the record
   through [Substrate.apply_event] re-emits it at the same stamp. *)
let listen t ~host ~port =
  (match t.tracer with
  | Some tr when Trace.recording tr && Trace.top_level tr ->
      Trace.emit tr (Trace.Net_listen { host; port })
  | _ -> ());
  if not (List.mem (host, port) t.listeners) then t.listeners <- (host, port) :: t.listeners

let is_listening t ~host ~port = List.mem (host, port) t.listeners

let connect t ~from_host ~from_ip ~host ~port ~uid ~exec =
  if not (is_listening t ~host ~port) then
    Error (Printf.sprintf "connect: connection refused to %s:%d" host port)
  else begin
    let transcript = Buffer.create 256 in
    Buffer.add_string transcript (Printf.sprintf "Listening on [0.0.0.0] (family 0, port %d)\n" port);
    Buffer.add_string transcript
      (Printf.sprintf "Connection from [%s] port %d [tcp/*] accepted\n" from_ip port);
    let conn =
      {
        conn_id = t.next_id;
        from_host;
        from_ip;
        to_host = host;
        port;
        conn_uid = uid;
        exec;
        transcript;
        conn_trace = t.tracer;
      }
    in
    t.next_id <- t.next_id + 1;
    t.connections <- conn :: t.connections;
    Ok conn
  end

(* A command typed on the remote side is an input to the testbed, so it
   is a boundary event; the shell execution underneath is bracketed
   with enter/leave like any other recorded crossing. *)
let run_command conn cmd =
  let out =
    match conn.conn_trace with
    | None -> conn.exec cmd
    | Some tr ->
        if Trace.recording tr && Trace.top_level tr then
          Trace.emit tr
            (Trace.Net_cmd
               { to_host = conn.to_host; port = conn.port; conn_id = conn.conn_id; cmd });
        Trace.charge tr Vclock.Netsim_cmd;
        Trace.within tr conn.exec cmd
  in
  Buffer.add_string conn.transcript cmd;
  Buffer.add_char conn.transcript '\n';
  if out <> "" then begin
    Buffer.add_string conn.transcript out;
    Buffer.add_char conn.transcript '\n'
  end;
  out

let connections_to t ~host ~port =
  List.filter (fun c -> c.to_host = host && c.port = port) t.connections

let transcript conn = Buffer.contents conn.transcript
