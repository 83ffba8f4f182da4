let offset = 0xcbf29ce484222325L
let prime = 0x100000001b3L
let[@inline] byte h c = Int64.mul (Int64.logxor h (Int64.of_int (c land 0xff))) prime

let int h v =
  let h = ref h in
  for i = 0 to 7 do
    h := byte !h ((v lsr (i * 8)) land 0xff)
  done;
  !h

(* a plain loop: no closure, no boxed hash per byte *)
let bytes b =
  let h = ref offset in
  for i = 0 to Bytes.length b - 1 do
    h := byte !h (Char.code (Bytes.unsafe_get b i))
  done;
  !h

let string s = bytes (Bytes.unsafe_of_string s)
