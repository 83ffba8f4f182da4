type maddr = int64
type vaddr = int64
type mfn = int
type pfn = int

let page_shift = 12
let page_size = 1 lsl page_shift
let page_mask = Int64.of_int (page_size - 1)
let superpage_size = 512 * page_size
let entries_per_table = 512

let maddr_of_mfn mfn = Int64.shift_left (Int64.of_int mfn) page_shift
let mfn_of_maddr ma = Int64.to_int (Int64.shift_right_logical ma page_shift)
let page_offset a = Int64.to_int (Int64.logand a page_mask)
let is_page_aligned a = Int64.logand a page_mask = 0L
let align_down a = Int64.logand a (Int64.lognot page_mask)

let align_up a =
  if is_page_aligned a then a
  else Int64.add (align_down a) (Int64.of_int page_size)

(* Canonical addresses replicate bit 47 into bits 48..63. *)
let canonical a =
  let low48 = Int64.logand a 0xFFFF_FFFF_FFFFL in
  if Int64.logand a 0x8000_0000_0000L <> 0L then
    Int64.logor low48 0xFFFF_0000_0000_0000L
  else low48

(* bits 47..63 all equal: a sign test, no canonical copy to allocate *)
let is_canonical a =
  let top = Int64.shift_right a 47 in
  top = 0L || top = -1L

let index level va =
  let shift = page_shift + (9 * (level - 1)) in
  Int64.to_int (Int64.logand (Int64.shift_right_logical va shift) 0x1FFL)

let l4_index va = index 4 va
let l3_index va = index 3 va
let l2_index va = index 2 va
let l1_index va = index 1 va

let of_indices ~l4 ~l3 ~l2 ~l1 ~offset =
  let part idx level = Int64.shift_left (Int64.of_int idx) (page_shift + (9 * (level - 1))) in
  let raw =
    Int64.logor
      (Int64.logor (part l4 4) (part l3 3))
      (Int64.logor (Int64.logor (part l2 2) (part l1 1)) (Int64.of_int offset))
  in
  canonical raw

let l4_slot_base slot = of_indices ~l4:slot ~l3:0 ~l2:0 ~l1:0 ~offset:0
let pp_vaddr ppf a = Format.fprintf ppf "0x%016Lx" a
