type vcpu_state = Runnable | Hung_in_hypervisor of string
type outcome = Scheduled of int | Cpu_stalled of string | Idle

type vcpu = {
  v_dom : int;
  mutable state : vcpu_state;
  mutable runs : int;
  v_scheduled : outcome;  (* [Scheduled v_dom], so a slice allocates nothing *)
}

let make_vcpu v_dom state runs = { v_dom; state; runs; v_scheduled = Scheduled v_dom }

(* The run queue is an array read round-robin from [head]: the vcpu at
   [head] runs next, and a slice moves [head] past it, which is the
   rotation to the back of the queue without moving anything. *)
type t = {
  mutable queue : vcpu array;
  mutable head : int;
  wd_enabled : bool;
  wd_threshold : int;
  n_pcpus : int;
  mutable stalled : int;
}

let create ?(watchdog_enabled = true) ?(watchdog_threshold = 8) ?(pcpus = 1) () =
  if pcpus <= 0 then invalid_arg "Sched.create: pcpus must be positive";
  {
    queue = [||];
    head = 0;
    wd_enabled = watchdog_enabled;
    wd_threshold = watchdog_threshold;
    n_pcpus = pcpus;
    stalled = 0;
  }

let pcpus t = t.n_pcpus

let watchdog_enabled t = t.wd_enabled

(* The [i]th vcpu in run order. *)
let nth t i = t.queue.((t.head + i) mod Array.length t.queue)

(* The queue in run order, as a list. *)
let vcpus t = List.init (Array.length t.queue) (nth t)

let set_queue t l =
  t.queue <- Array.of_list l;
  t.head <- 0

let add_vcpu t ~dom =
  let v = make_vcpu dom Runnable 0 in
  set_queue t (vcpus t @ [ v ]);
  v

let vcpu_of t ~dom = List.find_opt (fun v -> v.v_dom = dom) (vcpus t)
let runs_of t ~dom = match vcpu_of t ~dom with Some v -> v.runs | None -> 0

let remove_vcpu t ~dom =
  match vcpu_of t ~dom with
  | None -> Error Errno.ENOENT
  | Some _ ->
      set_queue t (List.filter (fun v -> v.v_dom <> dom) (vcpus t));
      Ok ()

let hung_vcpus t =
  List.filter_map
    (fun v -> match v.state with Hung_in_hypervisor r -> Some (v.v_dom, r) | Runnable -> None)
    (vcpus t)

let hung_count t =
  Array.fold_left
    (fun n v -> match v.state with Hung_in_hypervisor _ -> n + 1 | Runnable -> n)
    0 t.queue

(* Rotate to the next runnable vcpu, trying at most [n]; hung ones hold
   their pCPUs. *)
let rec next t n =
  if n <= 0 then Idle
  else begin
    let v = t.queue.(t.head) in
    t.head <- (t.head + 1) mod Array.length t.queue;
    match v.state with
    | Runnable ->
        v.runs <- v.runs + 1;
        v.v_scheduled
    | Hung_in_hypervisor _ -> next t (n - 1)
  end

let tick t =
  if hung_count t >= t.n_pcpus then begin
    (* every pCPU is pinned by a vcpu looping inside the hypervisor *)
    t.stalled <- t.stalled + 1;
    let dom, reason = List.hd (hung_vcpus t) in
    Cpu_stalled (Printf.sprintf "d%d vcpu stuck in hypervisor (%s)" dom reason)
  end
  else begin
    t.stalled <- 0;
    next t (Array.length t.queue)
  end

let stalled_slices t = t.stalled
let watchdog_fired t = t.wd_enabled && t.stalled > t.wd_threshold

let hang_vcpu t ~dom ~reason =
  match vcpu_of t ~dom with
  | None -> Error Errno.ENOENT
  | Some v ->
      v.state <- Hung_in_hypervisor reason;
      Ok ()

let unhang_vcpu t ~dom =
  match vcpu_of t ~dom with
  | None -> Error Errno.ENOENT
  | Some v ->
      v.state <- Runnable;
      t.stalled <- 0;
      Ok ()

type checkpoint = {
  ck_queue : (int * vcpu_state * int) array;  (* in array order *)
  ck_head : int;
  ck_stalled : int;
}

let checkpoint t =
  {
    ck_queue = Array.map (fun v -> (v.v_dom, v.state, v.runs)) t.queue;
    ck_head = t.head;
    ck_stalled = t.stalled;
  }

(* In place while the queue holds the checkpoint's domains in the same
   order, which is every reset after a trial that added or removed no
   vcpu; otherwise the queue is rebuilt. *)
let rec same_queue queue ck i =
  i = Array.length queue
  || (match ck.(i) with dom, _, _ -> queue.(i).v_dom = dom) && same_queue queue ck (i + 1)

let restore t ck =
  if Array.length t.queue = Array.length ck.ck_queue && same_queue t.queue ck.ck_queue 0 then
    for i = 0 to Array.length ck.ck_queue - 1 do
      let _, state, runs = ck.ck_queue.(i) and v = t.queue.(i) in
      v.state <- state;
      v.runs <- runs
    done
  else t.queue <- Array.map (fun (v_dom, state, runs) -> make_vcpu v_dom state runs) ck.ck_queue;
  t.head <- ck.ck_head;
  t.stalled <- ck.ck_stalled
