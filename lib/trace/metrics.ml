(* The metrics registry: find-or-create instruments keyed by
   (name, labels), rendered in deterministic (name, labels) order. *)

type hist = {
  bounds : float array;  (* finite upper bounds, strictly increasing *)
  counts : int array;  (* per-bucket (non-cumulative); length = bounds + 1 *)
  mutable h_sum : float;
  mutable h_total : int;
}

type value = Counter of int ref | Gauge of float ref | Histogram of hist

type instrument = {
  i_name : string;
  i_labels : (string * string) list;
  i_help : string;
  i_value : value;
}

type registry = { mutable items : instrument list }
type counter = int ref
type gauge = float ref
type histogram = hist

let create () = { items = [] }

let kind_name = function
  | Counter _ -> "counter"
  | Gauge _ -> "gauge"
  | Histogram _ -> "histogram"

(* Registries hold tens of series, so a linear find keeps the
   representation trivial and the iteration order irrelevant (rendering
   sorts). *)
let find_or_add reg ~name ~labels ~help make =
  let labels = List.sort compare labels in
  match
    List.find_opt (fun i -> i.i_name = name && i.i_labels = labels) reg.items
  with
  | Some i -> i.i_value
  | None ->
      let v = make () in
      reg.items <- { i_name = name; i_labels = labels; i_help = help; i_value = v } :: reg.items;
      v

let wrong_kind name v =
  invalid_arg
    (Printf.sprintf "Metrics: %s already registered as a %s" name (kind_name v))

let counter reg ?(help = "") ?(labels = []) name =
  match find_or_add reg ~name ~labels ~help (fun () -> Counter (ref 0)) with
  | Counter c -> c
  | v -> wrong_kind name v

let inc ?(by = 1) c =
  if by < 0 then invalid_arg "Metrics.inc: counters are monotonic";
  c := !c + by

let counter_value c = !c

let gauge reg ?(help = "") ?(labels = []) name =
  match find_or_add reg ~name ~labels ~help (fun () -> Gauge (ref 0.)) with
  | Gauge g -> g
  | v -> wrong_kind name v

let set g v = g := v

let histogram reg ?(help = "") ?(labels = []) ~buckets name =
  let rec increasing = function
    | a :: (b :: _ as rest) -> a < b && increasing rest
    | _ -> true
  in
  if buckets = [] || not (increasing buckets) then
    invalid_arg
      (Printf.sprintf
         "Metrics.histogram: %s: buckets must be non-empty and strictly increasing" name);
  let make () =
    let bounds = Array.of_list buckets in
    Histogram
      { bounds; counts = Array.make (Array.length bounds + 1) 0; h_sum = 0.; h_total = 0 }
  in
  match find_or_add reg ~name ~labels ~help make with
  | Histogram h ->
      if h.bounds <> Array.of_list buckets then
        invalid_arg (Printf.sprintf "Metrics: histogram %s re-registered with different buckets" name);
      h
  | v -> wrong_kind name v

let observe h x =
  let n = Array.length h.bounds in
  let rec slot i = if i >= n || x <= h.bounds.(i) then i else slot (i + 1) in
  let i = slot 0 in
  h.counts.(i) <- h.counts.(i) + 1;
  h.h_sum <- h.h_sum +. x;
  h.h_total <- h.h_total + 1

let histogram_count h = h.h_total
let histogram_sum h = h.h_sum

(* Prometheus-style quantile estimation: find the bucket the rank falls
   into, interpolate linearly inside it (uniform-within-bucket
   assumption), clamp the +Inf bucket to the highest finite bound. *)
let histogram_quantile h q =
  if q < 0. || q > 1. then
    invalid_arg "Metrics.histogram_quantile: quantile must be within [0, 1]";
  if h.h_total = 0 then Float.nan
  else begin
    let rank = q *. float_of_int h.h_total in
    let n = Array.length h.bounds in
    let rec go i cum =
      if i >= n then h.bounds.(n - 1)
      else
        let cum' = cum + h.counts.(i) in
        if float_of_int cum' >= rank then begin
          let lower = if i = 0 then 0. else h.bounds.(i - 1) in
          let upper = h.bounds.(i) in
          if h.counts.(i) = 0 then upper
          else
            lower
            +. (upper -. lower)
               *. ((rank -. float_of_int cum) /. float_of_int h.counts.(i))
        end
        else go (i + 1) cum'
    in
    go 0 0
  end

let bucket_counts h =
  let acc = ref 0 in
  let finite =
    Array.to_list (Array.mapi (fun i b -> acc := !acc + h.counts.(i); (b, !acc)) h.bounds)
  in
  finite @ [ (infinity, h.h_total) ]

(* --- rendering -------------------------------------------------------- *)

let sorted reg =
  List.sort
    (fun a b ->
      match compare a.i_name b.i_name with 0 -> compare a.i_labels b.i_labels | c -> c)
    reg.items

(* %g-style float that never prints "inf" disagreement across systems *)
let float_str f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

(* Prometheus label values escape exactly three characters: backslash,
   double quote and newline. OCaml's %S is close but wrong — it also
   escapes tabs and emits decimal escapes for other bytes, which the
   exposition-format parser rejects. *)
let prom_escape v =
  let b = Buffer.create (String.length v + 8) in
  String.iter
    (fun c ->
      match c with
      | '\\' -> Buffer.add_string b "\\\\"
      | '"' -> Buffer.add_string b "\\\""
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    v;
  Buffer.contents b

let label_str labels =
  match labels with
  | [] -> ""
  | ls ->
      "{"
      ^ String.concat ","
          (List.map (fun (k, v) -> Printf.sprintf "%s=\"%s\"" k (prom_escape v)) ls)
      ^ "}"

let with_le labels le =
  let le_s = if le = infinity then "+Inf" else float_str le in
  label_str (List.sort compare (("le", le_s) :: labels))

let render_prometheus reg =
  let b = Buffer.create 1024 in
  let seen_header = Hashtbl.create 8 in
  List.iter
    (fun i ->
      if not (Hashtbl.mem seen_header i.i_name) then begin
        Hashtbl.add seen_header i.i_name ();
        if i.i_help <> "" then
          Buffer.add_string b (Printf.sprintf "# HELP %s %s\n" i.i_name i.i_help);
        Buffer.add_string b (Printf.sprintf "# TYPE %s %s\n" i.i_name (kind_name i.i_value))
      end;
      match i.i_value with
      | Counter c ->
          Buffer.add_string b (Printf.sprintf "%s%s %d\n" i.i_name (label_str i.i_labels) !c)
      | Gauge g ->
          Buffer.add_string b
            (Printf.sprintf "%s%s %s\n" i.i_name (label_str i.i_labels) (float_str !g))
      | Histogram h ->
          List.iter
            (fun (le, n) ->
              Buffer.add_string b
                (Printf.sprintf "%s_bucket%s %d\n" i.i_name (with_le i.i_labels le) n))
            (bucket_counts h);
          Buffer.add_string b
            (Printf.sprintf "%s_sum%s %s\n" i.i_name (label_str i.i_labels)
               (float_str h.h_sum));
          Buffer.add_string b
            (Printf.sprintf "%s_count%s %d\n" i.i_name (label_str i.i_labels) h.h_total))
    (sorted reg);
  Buffer.contents b

let json_escape s =
  let b = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let json_labels labels =
  "{"
  ^ String.concat ","
      (List.map (fun (k, v) -> Printf.sprintf "\"%s\":\"%s\"" (json_escape k) (json_escape v)) labels)
  ^ "}"

let render_json reg =
  let item i =
    let common =
      Printf.sprintf "\"name\":\"%s\",\"type\":\"%s\",\"labels\":%s" (json_escape i.i_name)
        (kind_name i.i_value) (json_labels i.i_labels)
    in
    match i.i_value with
    | Counter c -> Printf.sprintf "{%s,\"value\":%d}" common !c
    | Gauge g -> Printf.sprintf "{%s,\"value\":%s}" common (float_str !g)
    | Histogram h ->
        let buckets =
          String.concat ","
            (List.map
               (fun (le, n) ->
                 Printf.sprintf "{\"le\":%s,\"count\":%d}"
                   (if le = infinity then "\"+Inf\"" else float_str le)
                   n)
               (bucket_counts h))
        in
        Printf.sprintf "{%s,\"buckets\":[%s],\"sum\":%s,\"count\":%d}" common buckets
          (float_str h.h_sum) h.h_total
  in
  "{\"metrics\":[\n  "
  ^ String.concat ",\n  " (List.map item (sorted reg))
  ^ "\n]}\n"
