type t = bytes

let create () = Bytes.make Addr.page_size '\000'
let copy = Bytes.copy

let check off len =
  if off < 0 || off + len > Addr.page_size then
    invalid_arg (Printf.sprintf "Frame: access [%d,+%d) out of page" off len)

let get_u8 t off =
  check off 1;
  Char.code (Bytes.get t off)

let set_u8 t off v =
  check off 1;
  Bytes.set t off (Char.chr (v land 0xff))

let get_u64 t off =
  check off 8;
  Bytes.get_int64_le t off

let set_u64 t off v =
  check off 8;
  Bytes.set_int64_le t off v

let get_entry t i = get_u64 t (8 * i)
let set_entry t i v = set_u64 t (8 * i) v

(* The present bit is bit 0 of a little-endian entry: one byte read,
   no int64 boxing — what makes full-table scans cheap. *)
let entry_present t i =
  check (8 * i) 8;
  Char.code (Bytes.unsafe_get t (8 * i)) land 1 <> 0

let iter_present t f =
  for i = 0 to 511 do
    if Char.code (Bytes.unsafe_get t (8 * i)) land 1 <> 0 then
      f i (Bytes.get_int64_le t (8 * i))
  done

let read_bytes t off len =
  check off len;
  Bytes.sub t off len

let write_bytes t off b =
  check off (Bytes.length b);
  Bytes.blit b 0 t off (Bytes.length b)

let write_string t off s =
  check off (String.length s);
  Bytes.blit_string s 0 t off (String.length s)

let fill t c = Bytes.fill t 0 Addr.page_size c

let blit_to_bytes t off dst dpos len =
  check off len;
  Bytes.blit t off dst dpos len

let blit_from_bytes src spos t off len =
  check off len;
  Bytes.blit src spos t off len

let restore_image t img =
  if Bytes.length img <> Addr.page_size then invalid_arg "Frame.restore_image: not a page image";
  Bytes.blit img 0 t 0 Addr.page_size

let restore_from t ~src = Bytes.blit src 0 t 0 Addr.page_size

let find_string t pat =
  let n = String.length pat in
  if n = 0 then Some 0
  else
    let limit = Addr.page_size - n in
    let rec scan i =
      if i > limit then None
      else if String.equal (Bytes.sub_string t i n) pat then Some i
      else scan (i + 1)
    in
    scan 0

let equal = Bytes.equal
let to_bytes t = Bytes.copy t

let fnv64 t =
  let h = ref 0xcbf29ce484222325L in
  for i = 0 to Addr.page_size - 1 do
    h := Int64.logxor !h (Int64.of_int (Char.code (Bytes.unsafe_get t i)));
    h := Int64.mul !h 0x100000001b3L
  done;
  !h
