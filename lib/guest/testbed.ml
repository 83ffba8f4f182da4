type t = {
  hv : Hv.t;
  mutable net : Netsim.t;
  mutable dom0 : Kernel.t;
  mutable attacker : Kernel.t;
  mutable victim : Kernel.t;
  mutable extras : Kernel.t list;
  dm : Devmodel.t;
  load : Load_mix.t;
  load_streams : (int * Load_mix.stream) list;
  remote_host : string;
  checkpoint : Hv.checkpoint;
  scan_cache : int Scan_memo.t;
}

let guest_kernels t = t.victim :: t.attacker :: t.extras

(* Background-load streams are pure functions of the domain id: built
   seeded on create and fork, re-seeded in place on every reset — the
   determinism contract that keeps loaded testbeds replayable. *)
let load_streams load domids =
  if Load_mix.ops_per_tick load = 0 then []
  else List.map (fun d -> (d, Load_mix.stream ~seed:(Load_mix.seed_for_domain d))) domids

let reseed_load t =
  List.iter (fun (d, st) -> Load_mix.reseed st ~seed:(Load_mix.seed_for_domain d)) t.load_streams

let extra_name i = Printf.sprintf "guest%02d" (5 + (2 * i))

let frames = 2048
let dom0_pages = 128
let guest_pages = 96

(* The one constructor of a testbed record, for the boot and the fork
   alike: a network, the kernels and the device model built around
   [hv]'s domains, the load streams seeded per guest domain and a fresh
   scan cache. *)
let assemble hv checkpoint ~load ~dom0 ~victim ~attacker ~extras =
  let net = Netsim.create () in
  Netsim.set_tracer net hv.Hv.trace;
  let kernel d = Kernel.create hv d net in
  {
    hv;
    net;
    dom0 = kernel dom0;
    victim = kernel victim;
    attacker = kernel attacker;
    extras = List.map kernel extras;
    dm = Devmodel.create hv ~served:victim.Domain.id;
    load;
    load_streams =
      load_streams load (List.map (fun d -> d.Domain.id) (victim :: attacker :: extras));
    remote_host = "xen2";
    checkpoint;
    scan_cache = Scan_memo.create ();
  }

let create ?(domains = 2) ?(load = Load_mix.none) version =
  if domains < 2 then invalid_arg "Testbed.create: need at least victim + attacker";
  let hv = Hv.boot ~version ~frames in
  let dom0 = Builder.create_domain hv ~name:"xen3" ~privileged:true ~pages:dom0_pages in
  let victim = Builder.create_domain hv ~name:"guest01" ~privileged:false ~pages:guest_pages in
  let attacker = Builder.create_domain hv ~name:"guest03" ~privileged:false ~pages:guest_pages in
  let extras =
    List.init (domains - 2) (fun i ->
        Builder.create_domain hv ~name:(extra_name i) ~privileged:false ~pages:guest_pages)
  in
  (* the checkpoint is taken before the kernels are built *)
  assemble hv (Hv.checkpoint hv) ~load ~dom0 ~victim ~attacker ~extras

(* Fork a new testbed from [template] without re-running the builder:
   the hypervisor is an {!Hv.fork} (memory shared copy-on-write), and the
   kernels are built around the forked domains, by domid.
   The fork shares the template's checkpoint record — restores only read
   it — so [reset] on a forked testbed works unchanged. *)
let fork ?load template =
  let hv = Hv.fork template.hv template.checkpoint in
  let dom k =
    match Hv.find_domain hv (Kernel.domid k) with
    | Some dom -> dom
    | None -> invalid_arg "Testbed.fork: template lost a domain"
  in
  assemble hv template.checkpoint
    ~load:(Option.value load ~default:template.load)
    ~dom0:(dom template.dom0) ~victim:(dom template.victim) ~attacker:(dom template.attacker)
    ~extras:(List.map dom template.extras)

(* The warm pool: one frozen template per configuration, built on first
   use and shared by every subsequent [create_pooled] — including forks
   requested concurrently from worker domains, hence the mutex. The load
   mix is runtime-only state (it never touches boot), so templates are
   pooled load-free and each fork installs its own mix. *)
let pool_lock = Mutex.create ()
let pool : (Version.t * int, t) Hashtbl.t = Hashtbl.create 8

let template ~domains version =
  let key = (version, domains) in
  Mutex.lock pool_lock;
  Fun.protect ~finally:(fun () -> Mutex.unlock pool_lock) @@ fun () ->
  match Hashtbl.find_opt pool key with
  | Some tmpl -> tmpl
  | None ->
      let tmpl = create ~domains version in
      Phys_mem.freeze tmpl.hv.Hv.mem;
      Hashtbl.replace pool key tmpl;
      tmpl

let create_pooled ?(domains = 2) ?(load = Load_mix.none) version =
  fork ~load (template ~domains version)

(* The kernel of [k]'s domain after a restore: [k] itself, back in boot
   state, while its domain record survived; rebuilt around the fresh
   record when the trial destroyed the domain. *)
let reset_kernel t k =
  if List.memq (Kernel.dom k) t.hv.Hv.domains then begin
    Kernel.reset k;
    k
  end
  else
    match Hv.find_domain t.hv (Kernel.domid k) with
    | Some dom -> Kernel.create t.hv dom t.net
    | None -> invalid_arg "Testbed.reset: checkpoint lost a domain"

(* [reset_kernel] over a list, which is kept while no kernel changed *)
let rec reset_kernels t = function
  | [] -> []
  | k :: rest as ks ->
      let k' = reset_kernel t k in
      let rest' = reset_kernels t rest in
      if k' == k && rest' == rest then ks else k' :: rest'

let reset t =
  Hv.restore t.hv t.checkpoint;
  (* the restore rolled the Domain.t records back in place; the network
     and the kernels' own state (klog, processes, filesystem, irq
     handlers) return to boot state in place too *)
  Netsim.reset t.net;
  t.dom0 <- reset_kernel t t.dom0;
  t.victim <- reset_kernel t t.victim;
  t.attacker <- reset_kernel t t.attacker;
  t.extras <- reset_kernels t t.extras;
  Devmodel.reset t.dm;
  reseed_load t

let kernels t = t.dom0 :: t.victim :: t.attacker :: t.extras
let domains t = List.length (guest_kernels t)
let domain_names t = List.map Kernel.hostname (guest_kernels t)

(* One background-load operation, drawn from the domain's stream: a mix
   of guest memory traffic, event-channel round trips and grant-table
   round trips, all through the ordinary instrumented (and vclock-
   charged) paths. Grant refs 48-63 are reserved for load so scenarios
   using low refs never collide. *)
let load_op k rnd =
  match Int64.to_int (Int64.logand rnd 3L) with
  | 0 | 1 -> ignore (Kernel.read_u64 k (Kernel.start_info_vaddr k))
  | 2 -> (
      match
        Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_bind_virq { virq = 0 }))
      with
      | Ok port ->
          let port = Int64.to_int port in
          ignore
            (Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_send { port })));
          ignore (Event_channel.consume (Kernel.dom k).Domain.events port);
          ignore
            (Kernel.hypercall k (Hypercall.Event_channel_op (Hypercall.Evtchn_close { port })))
      | Error _ -> ())
  | _ -> (
      let gref = 48 + Int64.to_int (Int64.logand (Int64.shift_right_logical rnd 2) 15L) in
      match
        Kernel.hypercall k
          (Hypercall.Grant_table_op
             (Hypercall.Gnttab_grant_access { gref; grantee = 0; pfn = 3; readonly = true }))
      with
      | Ok _ ->
          ignore
            (Kernel.hypercall k (Hypercall.Grant_table_op (Hypercall.Gnttab_end_access { gref })))
      | Error _ -> ())

let run_load t =
  let n = Load_mix.ops_per_tick t.load in
  if n > 0 then
    List.iter
      (fun k ->
        match List.assoc_opt (Kernel.domid k) t.load_streams with
        | Some st ->
            for _ = 1 to n do
              load_op k (Load_mix.next st)
            done
        | None -> ())
      (guest_kernels t)

(* Tick the kernel of domain [domid], found without building an option. *)
let rec tick_extra domid = function
  | [] -> ()
  | k :: rest -> if Kernel.domid k = domid then Kernel.tick k else tick_extra domid rest

let tick_domain t domid =
  if Kernel.domid t.dom0 = domid then Kernel.tick t.dom0
  else if Kernel.domid t.victim = domid then Kernel.tick t.victim
  else if Kernel.domid t.attacker = domid then Kernel.tick t.attacker
  else tick_extra domid t.extras

(* One scheduling round: every vcpu gets (at most) one slice; a hung
   vcpu pins the pCPU and nobody else runs. Background load and the
   device-model turn run inside the round, so a replayed [Sched_round]
   regenerates them deterministically. *)
let round t =
  (* one slice per kernel: [List.length (kernels t)], without the list *)
  for _ = 1 to 3 + List.length t.extras do
    match Hv.sched_tick t.hv with
    | Sched.Scheduled domid -> tick_domain t domid
    | Sched.Cpu_stalled _ | Sched.Idle -> ()
  done;
  run_load t;
  Devmodel.kick t.dm

let tick_all t =
  let tr = t.hv.Hv.trace in
  if Trace.recording tr && Trace.top_level tr then Trace.emit tr Trace.Sched_round;
  Trace.within tr round t

let remote_listen t ~port =
  (* the boundary emit happens inside Netsim.listen, where replay also
     goes through *)
  Netsim.listen t.net ~host:t.remote_host ~port
