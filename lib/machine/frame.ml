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

let set_u64_of_int t off v =
  check off 8;
  Bytes.set_int64_le t off (Int64.of_int v)

let get_entry t i = get_u64 t (8 * i)
let set_entry t i v = set_u64 t (8 * i) v

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

let restore_from t ~src = Bytes.blit src 0 t 0 Addr.page_size

let equal = Bytes.equal
let to_bytes t = Bytes.copy t
