(* Byte-granular provenance: a sparse shadow map over physical memory
   tagging every byte with the origin label of its last writer, plus
   the causal edges created whenever a consumer (page walker, PTE
   validator, IDT gate reader, VMCS check, monitor scan) interprets
   tainted bytes. See provenance.mli for the contract. *)

let page_size = 4096

(* --- labels ------------------------------------------------------------ *)

type origin =
  | Baseline
  | Injector_action of int
  | Hypercall_arg of int
  | Guest_write of int
  | Backend_write of int
  | Overflow
  | Device_model of int

(* Stable small code for the coverage map's provenance axis: the origin
   {e constructor}, not its parameter — the axis covers "which kind of
   producer reached which consumer", not individual labels. *)
let origin_kind = function
  | Baseline -> 0
  | Injector_action _ -> 1
  | Hypercall_arg _ -> 2
  | Guest_write _ -> 3
  | Backend_write _ -> 4
  | Overflow -> 5
  | Device_model _ -> 6

let origin_to_string = function
  | Baseline -> "baseline"
  | Injector_action n -> Printf.sprintf "injector#%d" n
  | Hypercall_arg nr -> Printf.sprintf "hypercall:%d" nr
  | Guest_write domid -> Printf.sprintf "guest:d%d" domid
  | Backend_write id -> Printf.sprintf "backend:%d" id
  | Overflow -> "overflow"
  | Device_model 0 -> "device-model"
  | Device_model n -> Printf.sprintf "device-model(injector#%d)" n

type consumer =
  | Pt_walk
  | Page_type_check
  | Idt_gate
  | Monitor_scan
  | M2p_check
  | Vmcs_check
  | Ept_walk
  | Vmi_view
  | Gnt_check
  | Vdso_exec

let consumer_code = function
  | Pt_walk -> 0
  | Page_type_check -> 1
  | Idt_gate -> 2
  | Monitor_scan -> 3
  | M2p_check -> 4
  | Vmcs_check -> 5
  | Ept_walk -> 6
  | Vmi_view -> 7
  | Gnt_check -> 8
  | Vdso_exec -> 9

let consumer_name = function
  | Pt_walk -> "pt_walk"
  | Page_type_check -> "page_type_check"
  | Idt_gate -> "idt_gate"
  | Monitor_scan -> "monitor_scan"
  | M2p_check -> "m2p_check"
  | Vmcs_check -> "vmcs_check"
  | Ept_walk -> "ept_walk"
  | Vmi_view -> "vmi_view"
  | Gnt_check -> "gnt_check"
  | Vdso_exec -> "vdso_exec"

let all_consumers =
  [
    Pt_walk; Page_type_check; Idt_gate; Monitor_scan; M2p_check; Vmcs_check; Ept_walk; Vmi_view;
    Gnt_check; Vdso_exec;
  ]

(* --- the shadow map ----------------------------------------------------- *)

type edge = {
  e_vts : int64;  (* virtual ns when the read happened (0 when no trace) *)
  e_consumer : consumer;
  e_mfn : int;
  e_off : int;
  e_len : int;
  e_labels : int list;  (* distinct nonzero label ids, ascending *)
}

type label_info = {
  li_origin : origin;
  li_vts : int64;  (* virtual ns when the label was first used *)
  mutable li_bytes : int;  (* bytes currently carrying this label *)
  mutable li_read : bool;  (* some consumer interpreted one of them *)
}

(* Label id 0 is the implicit Baseline everywhere (never stored in a
   label_info slot); 1..254 are interned origins in first-use order;
   255 is the saturation label every origin beyond the 254th maps to. *)
let max_labels = 255

type t = {
  mutable tr : Trace.t option;
  shadow : (int, Bytes.t) Hashtbl.t;  (* mfn -> one label byte per data byte *)
  mutable labels : label_info list;  (* newest first; id = position from the end *)
  mutable n_labels : int;
  intern : (origin, int) Hashtbl.t;
  mutable current : int;  (* label applied by in-flight writes; 0 = none *)
  mutable edges_rev : edge list;
  mutable n_edges : int;
  mutable tainted : int;  (* total bytes with a nonzero label *)
}

let create ?tr () =
  {
    tr;
    shadow = Hashtbl.create 61;
    labels = [];
    n_labels = 0;
    intern = Hashtbl.create 61;
    current = 0;
    edges_rev = [];
    n_edges = 0;
    tainted = 0;
  }

let set_trace t tr = t.tr <- Some tr

let label_info t id =
  (* labels is newest-first: id [n_labels] is the head *)
  List.nth t.labels (t.n_labels - id)

let origin_of_label t id = if id = 0 then Baseline else (label_info t id).li_origin

let intern t origin =
  match Hashtbl.find_opt t.intern origin with
  | Some id -> id
  | None ->
      let vts = match t.tr with Some tr -> Trace.vts tr | None -> 0L in
      if t.n_labels >= max_labels - 1 then begin
        (* saturated: everything else shares the overflow label *)
        (match Hashtbl.find_opt t.intern Overflow with
        | Some id -> Hashtbl.replace t.intern origin id
        | None ->
            t.labels <-
              { li_origin = Overflow; li_vts = vts; li_bytes = 0; li_read = false }
              :: t.labels;
            t.n_labels <- t.n_labels + 1;
            Hashtbl.replace t.intern Overflow t.n_labels;
            Hashtbl.replace t.intern origin t.n_labels);
        Hashtbl.find t.intern origin
      end
      else begin
        t.labels <-
          { li_origin = origin; li_vts = vts; li_bytes = 0; li_read = false }
          :: t.labels;
        t.n_labels <- t.n_labels + 1;
        Hashtbl.replace t.intern origin t.n_labels;
        t.n_labels
      end

let with_origin t origin f =
  let saved = t.current in
  t.current <- intern t origin;
  Fun.protect ~finally:(fun () -> t.current <- saved) f

let taint t ~mfn ~off ~len =
  let lab = t.current in
  let row =
    match Hashtbl.find_opt t.shadow mfn with
    | Some r -> Some r
    | None ->
        if lab = 0 then None
        else begin
          let r = Bytes.make page_size '\000' in
          Hashtbl.add t.shadow mfn r;
          Some r
        end
  in
  match row with
  | None -> ()
  | Some row ->
      let off = max 0 off in
      let len = min len (page_size - off) in
      let c = Char.chr lab in
      for i = off to off + len - 1 do
        let old = Char.code (Bytes.get row i) in
        if old <> lab then begin
          if old <> 0 then begin
            let o = label_info t old in
            o.li_bytes <- o.li_bytes - 1;
            t.tainted <- t.tainted - 1
          end;
          if lab <> 0 then begin
            let n = label_info t lab in
            n.li_bytes <- n.li_bytes + 1;
            t.tainted <- t.tainted + 1
          end;
          Bytes.set row i c
        end
      done

let clear_frame t mfn =
  match Hashtbl.find_opt t.shadow mfn with
  | None -> ()
  | Some row ->
      Bytes.iter
        (fun c ->
          let l = Char.code c in
          if l <> 0 then begin
            let o = label_info t l in
            o.li_bytes <- o.li_bytes - 1;
            t.tainted <- t.tainted - 1
          end)
        row;
      Hashtbl.remove t.shadow mfn

let observe t ~consumer ~mfn ~off ~len =
  match Hashtbl.find_opt t.shadow mfn with
  | None -> ()
  | Some row -> (
      let off = max 0 off in
      let len = min len (page_size - off) in
      let seen = ref [] in
      for i = off to off + len - 1 do
        let l = Char.code (Bytes.get row i) in
        if l <> 0 && not (List.mem l !seen) then seen := l :: !seen
      done;
      match List.sort_uniq compare !seen with
      | [] -> ()
      | labels ->
          List.iter (fun l -> (label_info t l).li_read <- true) labels;
          let vts = match t.tr with Some tr -> Trace.vts tr | None -> 0L in
          t.edges_rev <-
            {
              e_vts = vts;
              e_consumer = consumer;
              e_mfn = mfn;
              e_off = off;
              e_len = len;
              e_labels = labels;
            }
            :: t.edges_rev;
          t.n_edges <- t.n_edges + 1;
          (match t.tr with
          | Some tr -> (
              (* coverage feed is not gated on the ring: replay re-drives
                 these consumers whether or not it re-records *)
              (match Trace.coverage tr with
              | Some cov ->
                  List.iter
                    (fun l ->
                      Coverage.note_prov cov ~consumer:(consumer_code consumer)
                        ~origin_kind:(origin_kind (origin_of_label t l)))
                    labels
              | None -> ());
              if Trace.recording tr then
                Trace.emit tr
                  (Trace.Provenance_edge
                     { consumer = consumer_code consumer; mfn; off; len; labels }))
          | None -> ()))

(* --- reset ---------------------------------------------------------------- *)

(* A shadow is never attached across a machine baseline capture
   (Phys_mem refuses it), so the pre-trial state is "nothing tainted". *)
let reset_to_baseline t =
  t.current <- 0;
  t.edges_rev <- [];
  t.n_edges <- 0;
  Hashtbl.reset t.shadow;
  t.labels <- [];
  t.n_labels <- 0;
  Hashtbl.reset t.intern;
  t.tainted <- 0

(* --- queries ------------------------------------------------------------ *)

let tainted_bytes t = t.tainted
let edge_count t = t.n_edges
let edges t = List.rev t.edges_rev

let label_vts t id = if id = 0 then 0L else (label_info t id).li_vts

let labels t =
  List.rev (List.mapi (fun i li -> (t.n_labels - i, li.li_origin, li.li_bytes, li.li_read)) t.labels)

let origins_for t pred =
  let ids =
    List.fold_left
      (fun acc e -> if pred e.e_consumer then List.rev_append e.e_labels acc else acc)
      [] t.edges_rev
  in
  List.sort_uniq compare (List.map (origin_of_label t) ids)

let origins_read t = origins_for t (fun _ -> true)

let silent t =
  List.filter_map
    (fun (_, origin, bytes, read) -> if bytes > 0 && not read then Some (origin, bytes) else None)
    (labels t)

(* --- canonical graph export -------------------------------------------- *)

(* The canonical graph carries no timestamps: replay re-drives the boundary
   stream on a fresh machine, which reproduces the same writes and the
   same reads but at different ring positions and (for scans) with a
   different repetition count. Distinct (consumer, location, origin
   set) tuples are what determinism guarantees, so that is what the
   export contains — byte for byte. *)

type gedge = { g_consumer : string; g_mfn : int; g_off : int; g_len : int; g_origins : string list }

let graph t =
  let render e =
    {
      g_consumer = consumer_name e.e_consumer;
      g_mfn = e.e_mfn;
      g_off = e.e_off;
      g_len = e.e_len;
      g_origins = List.map (fun id -> origin_to_string (origin_of_label t id)) e.e_labels;
    }
  in
  List.sort_uniq compare (List.rev_map render t.edges_rev)

let to_json t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "{\n  \"nodes\": [";
  List.iteri
    (fun i (_, origin, bytes, read) ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "\n    {\"origin\": \"%s\", \"bytes\": %d, \"read\": %b}"
           (Metrics.json_escape (origin_to_string origin)) bytes read))
    (labels t);
  Buffer.add_string b "\n  ],\n  \"edges\": [";
  List.iteri
    (fun i g ->
      if i > 0 then Buffer.add_string b ",";
      Buffer.add_string b
        (Printf.sprintf "\n    {\"consumer\": \"%s\", \"mfn\": %d, \"off\": %d, \"len\": %d, \"origins\": [%s]}"
           g.g_consumer g.g_mfn g.g_off g.g_len
           (String.concat ", " (List.map (fun o -> Printf.sprintf "\"%s\"" (Metrics.json_escape o)) g.g_origins))))
    (graph t);
  Buffer.add_string b "\n  ]\n}\n";
  Buffer.contents b

let dot_escape s = String.map (fun c -> if c = '"' then '\'' else c) s

let to_dot t =
  let b = Buffer.create 1024 in
  Buffer.add_string b "digraph provenance {\n  rankdir=LR;\n";
  List.iter
    (fun (_, origin, bytes, read) ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" [shape=box, label=\"%s\\n%d byte%s%s\"];\n"
           (dot_escape (origin_to_string origin))
           (dot_escape (origin_to_string origin))
           bytes
           (if bytes = 1 then "" else "s")
           (if read then "" else " (silent)")))
    (labels t);
  let g = graph t in
  let consumers =
    List.sort_uniq compare (List.map (fun e -> e.g_consumer) g)
  in
  List.iter
    (fun c -> Buffer.add_string b (Printf.sprintf "  \"%s\" [shape=ellipse];\n" c))
    consumers;
  (* one arrow per (origin, consumer) pair, weighted by site count *)
  let pairs = Hashtbl.create 16 in
  List.iter
    (fun e ->
      List.iter
        (fun o ->
          let k = (o, e.g_consumer) in
          Hashtbl.replace pairs k (1 + Option.value ~default:0 (Hashtbl.find_opt pairs k)))
        e.g_origins)
    g;
  let arrows = Hashtbl.fold (fun k v acc -> (k, v) :: acc) pairs [] in
  List.iter
    (fun ((o, c), n) ->
      Buffer.add_string b
        (Printf.sprintf "  \"%s\" -> \"%s\" [label=\"%d\"];\n" (dot_escape o) c n))
    (List.sort compare arrows);
  Buffer.add_string b "}\n";
  Buffer.contents b

(* --- metrics ------------------------------------------------------------ *)

let read_distance_ns_buckets = [ 100.; 1_000.; 10_000.; 100_000.; 1e6; 1e7; 1e8 ]

let publish registry t =
  let c =
    Metrics.counter registry ~help:"Causal provenance edges recorded" "provenance_edges_total"
  in
  Metrics.inc c ~by:t.n_edges;
  let g =
    Metrics.gauge registry ~help:"Bytes currently carrying a nonzero taint label"
      "provenance_tainted_bytes"
  in
  Metrics.set g (float_of_int t.tainted);
  let s =
    Metrics.gauge registry ~help:"Tainted-but-never-read origin labels (silent corruption)"
      "provenance_silent_labels"
  in
  Metrics.set s (float_of_int (List.length (silent t)));
  let h =
    Metrics.histogram registry
      ~help:"Virtual-ns distance from taint to first interpreting read"
      ~buckets:read_distance_ns_buckets "provenance_read_distance_ns"
  in
  List.iter
    (fun e ->
      List.iter
        (fun id ->
          Metrics.observe h
            (Int64.to_float (Int64.max 0L (Int64.sub e.e_vts (label_vts t id)))))
        e.e_labels)
    (edges t)
