(* Deterministic coverage maps over the trial axes the fuzzer will
   later maximize. See coverage.mli for the layout contract; the
   numbers below are the single source of truth for it. *)

(* --- layout ------------------------------------------------------------ *)

let viol_classes = 6
let viol_domain_slots = 32
let prov_consumers = 16
let prov_kinds = 8
let port_nrs = 64
let port_outcomes = 32
let scn_slots = 1024
let scn_buckets = 8
let record_codes = 64

let viol_bits = viol_classes * viol_domain_slots (* 192 *)
let prov_bits = prov_consumers * prov_kinds (* 128 *)
let port_bits = port_nrs * port_outcomes (* 2048 *)
let scn_bits = scn_slots * scn_buckets (* 8192 *)

let viol_off = 0
let prov_off = viol_off + (viol_bits / 8)
let port_off = prov_off + (prov_bits / 8)
let scn_off = port_off + (port_bits / 8)
let record_off = scn_off + (scn_bits / 8)
let size_bytes = record_off + (record_codes / 8) (* 1328 *)
let size_bits = size_bytes * 8

type map = Bytes.t

type t = {
  bits : Bytes.t;  (* every axis except scn_edge sets bits directly *)
  scn : int array;  (* raw per-slot hit counts, bucketized at snapshot *)
}

let create () = { bits = Bytes.make size_bytes '\000'; scn = Array.make scn_slots 0 }

let clear t =
  Bytes.fill t.bits 0 size_bytes '\000';
  Array.fill t.scn 0 scn_slots 0

let set_bit b i =
  let byte = i lsr 3 and mask = 1 lsl (i land 7) in
  Bytes.set_uint8 b byte (Bytes.get_uint8 b byte lor mask)

(* --- hashing ----------------------------------------------------------- *)

let hash = Fnv.bytes
let domain_slot name = Int64.to_int (Int64.logand (Fnv.string name) 31L)

let scn_slot ~section ~prev ~pc =
  let h = Fnv.int (Fnv.int (Fnv.int Fnv.offset section) prev) pc in
  Int64.to_int (Int64.logand h (Int64.of_int (scn_slots - 1)))

(* AFL-style hit-count buckets: 1, 2, 3, 4-7, 8-15, 16-31, 32-127, 128+ *)
let count_bucket c =
  if c <= 1 then 0
  else if c = 2 then 1
  else if c = 3 then 2
  else if c < 8 then 3
  else if c < 16 then 4
  else if c < 32 then 5
  else if c < 128 then 6
  else 7

(* --- producers --------------------------------------------------------- *)

let note_violation t ~cls ~domain =
  let cls = ((cls mod viol_classes) + viol_classes) mod viol_classes in
  set_bit t.bits ((viol_off * 8) + (cls * viol_domain_slots) + domain_slot domain)

let note_prov t ~consumer ~origin_kind =
  set_bit t.bits
    ((prov_off * 8) + ((consumer land (prov_consumers - 1)) * prov_kinds)
    + (origin_kind land (prov_kinds - 1)))

let note_port t ~nr ~outcome =
  set_bit t.bits
    ((port_off * 8) + ((nr land (port_nrs - 1)) * port_outcomes)
    + (outcome land (port_outcomes - 1)))

let note_scn_edge t ~section ~prev ~pc =
  let s = scn_slot ~section ~prev ~pc in
  t.scn.(s) <- t.scn.(s) + 1

let note_record t code = set_bit t.bits ((record_off * 8) + (code land (record_codes - 1)))

let snapshot t =
  let m = Bytes.copy t.bits in
  Array.iteri
    (fun i c -> if c > 0 then set_bit m ((scn_off * 8) + (i * scn_buckets) + count_bucket c))
    t.scn;
  m

(* --- maps -------------------------------------------------------------- *)

let empty = Bytes.make size_bytes '\000'

let check_size name m =
  if Bytes.length m <> size_bytes then
    invalid_arg (Printf.sprintf "Coverage.%s: map is %d bytes, want %d" name (Bytes.length m) size_bytes)

let map2 name f a b =
  check_size name a;
  check_size name b;
  Bytes.init size_bytes (fun i ->
      Char.chr (f (Bytes.get_uint8 a i) (Bytes.get_uint8 b i) land 0xff))

let merge a b = map2 "merge" ( lor ) a b
let diff a b = map2 "diff" (fun x y -> x land lnot y) a b

let popcount_byte =
  lazy
    (Array.init 256 (fun v ->
         let rec go v acc = if v = 0 then acc else go (v lsr 1) (acc + (v land 1)) in
         go v 0))

let popcount m =
  let tbl = Lazy.force popcount_byte in
  let acc = ref 0 in
  Bytes.iter (fun c -> acc := !acc + tbl.(Char.code c)) m;
  !acc

let novelty m ~against = popcount (diff m against)
let is_empty m = Bytes.for_all (fun c -> c = '\000') m
let equal = Bytes.equal

let regions =
  [
    ("violation", viol_off, viol_bits / 8);
    ("provenance", prov_off, prov_bits / 8);
    ("port", port_off, port_bits / 8);
    ("scn_edge", scn_off, scn_bits / 8);
    ("record", record_off, record_codes / 8);
  ]

let region_bits m =
  let tbl = Lazy.force popcount_byte in
  List.map
    (fun (name, off, len) ->
      let acc = ref 0 in
      for i = off to off + len - 1 do
        acc := !acc + tbl.(Bytes.get_uint8 m i)
      done;
      (name, !acc))
    regions

(* --- renderers --------------------------------------------------------- *)

let to_hex m =
  String.init (2 * Bytes.length m) (fun i ->
      let v = Bytes.get_uint8 m (i / 2) in
      "0123456789abcdef".[if i mod 2 = 0 then v lsr 4 else v land 0xf])

let of_hex s =
  if String.length s <> 2 * size_bytes then
    Error (Printf.sprintf "coverage hex is %d chars, want %d" (String.length s) (2 * size_bytes))
  else
    let nib c =
      match c with
      | '0' .. '9' -> Ok (Char.code c - Char.code '0')
      | 'a' .. 'f' -> Ok (Char.code c - Char.code 'a' + 10)
      | 'A' .. 'F' -> Ok (Char.code c - Char.code 'A' + 10)
      | c -> Error (Printf.sprintf "bad hex char %C" c)
    in
    let m = Bytes.make size_bytes '\000' in
    let err = ref None in
    for i = 0 to size_bytes - 1 do
      match (nib s.[2 * i], nib s.[(2 * i) + 1]) with
      | Ok hi, Ok lo -> Bytes.set_uint8 m i ((hi lsl 4) lor lo)
      | Error e, _ | _, Error e -> if !err = None then err := Some e
    done;
    match !err with Some e -> Error e | None -> Ok m

let to_json m =
  Printf.sprintf "{\"bits\":%d,\"hash\":\"%016Lx\",\"regions\":{%s},\"map\":\"%s\"}"
    (popcount m) (hash m)
    (String.concat "," (List.map (fun (n, b) -> Printf.sprintf "\"%s\":%d" n b) (region_bits m)))
    (to_hex m)

let of_json_map s =
  let key = "\"map\":\"" in
  let rec find i =
    if i + String.length key > String.length s then Error "no \"map\" field"
    else if String.sub s i (String.length key) = key then begin
      let start = i + String.length key in
      match String.index_from_opt s start '"' with
      | None -> Error "unterminated \"map\" field"
      | Some stop -> of_hex (String.sub s start (stop - start))
    end
    else find (i + 1)
  in
  find 0

let publish ?(labels = []) reg m =
  Metrics.set
    (Metrics.gauge reg ~help:"Coverage bits set across all axes" ~labels "coverage_bits_total")
    (float_of_int (popcount m));
  List.iter
    (fun (region, bits) ->
      Metrics.set
        (Metrics.gauge reg ~help:"Coverage bits set per axis"
           ~labels:(labels @ [ ("region", region) ])
           "coverage_bits")
        (float_of_int bits))
    (region_bits m)
