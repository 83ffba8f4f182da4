type proc = { pid : int; uid : int; cmdline : string; mutable vdso_calls : int }

type t = { mutable procs : proc list; mutable next_pid : int }

let spawn t ~uid ~cmdline =
  let p = { pid = t.next_pid; uid; cmdline; vdso_calls = 0 } in
  t.next_pid <- t.next_pid + 1;
  t.procs <- t.procs @ [ p ];
  p

let boot t =
  t.procs <- [];
  t.next_pid <- 1;
  ignore (spawn t ~uid:0 ~cmdline:"/sbin/init");
  t.next_pid <- 1000;
  ignore (spawn t ~uid:1000 ~cmdline:"-bash")

let create () =
  let t = { procs = []; next_pid = 1 } in
  boot t;
  t

(* In place while the table is still the two boot processes (nothing
   spawned or killed since): their counters go back to 0. *)
let reset t =
  match t.procs with
  | [ init; bash ] when t.next_pid = 1001 && init.pid = 1 && bash.pid = 1000 ->
      init.vdso_calls <- 0;
      bash.vdso_calls <- 0
  | _ -> boot t

let kill t ~pid =
  let before = List.length t.procs in
  t.procs <- List.filter (fun p -> p.pid <> pid) t.procs;
  List.length t.procs < before

let find t ~pid = List.find_opt (fun p -> p.pid = pid) t.procs
let list t = List.sort (fun a b -> compare a.pid b.pid) t.procs
let running_uids t = List.sort_uniq compare (List.map (fun p -> p.uid) t.procs)

let ps_output t =
  let header = Printf.sprintf "%5s %-8s %s" "PID" "USER" "COMMAND" in
  let rows =
    List.map
      (fun p -> Printf.sprintf "%5d %-8s %s" p.pid (Shell.user_name p.uid) p.cmdline)
      (list t)
  in
  String.concat "\n" (header :: rows)

let on_tick t = List.iter (fun p -> p.vdso_calls <- p.vdso_calls + 1) t.procs
