type access = No_access | Read_only | Read_write

type region =
  | Guest_low
  | M2p
  | Linear_pt
  | Xen_extra
  | Xen_private
  | Direct_map
  | Guest_kernel

let m2p_slot = 256
let m2p_base = Addr.l4_slot_base m2p_slot

(* The linear-PT window is the second half of L4 slot 256, i.e. the L3
   indices 256..511 of the same PUD that maps the M2P. *)
let linear_pt_base = Int64.add m2p_base 0x40_0000_0000L
let linear_pt_end = Int64.add m2p_base 0x7f_ffff_ffffL
let xen_extra_slot = 258
let xen_extra_base = Addr.l4_slot_base 257
let xen_private_base = Addr.l4_slot_base 260
let directmap_slot = 262
let directmap_base = Addr.l4_slot_base directmap_slot
let directmap_end_slot = 271
let guest_kernel_slot = 272
let guest_kernel_base = Addr.l4_slot_base guest_kernel_slot

(* On the VA's low 48 bits as an int (all that canonicalization keeps):
   every guest access asks, so it must not allocate. *)
let linear_pt_slot_offset = Int64.to_int (Int64.sub linear_pt_base m2p_base)

let region_of_bits vi =
  let slot = (vi lsr 39) land 0x1ff in
  if vi land 0x8000_0000_0000 = 0 then Guest_low
  else if slot = m2p_slot then
    if vi land ((1 lsl 39) - 1) < linear_pt_slot_offset then M2p else Linear_pt
  else if slot >= 257 && slot <= 259 then Xen_extra
  else if slot >= 260 && slot <= 261 then Xen_private
  else if slot >= directmap_slot && slot <= directmap_end_slot then Direct_map
  else Guest_kernel

let region_of_vaddr va = region_of_bits (Int64.to_int va)

let region_name = function
  | Guest_low -> "guest-low"
  | M2p -> "m2p"
  | Linear_pt -> "linear-pt"
  | Xen_extra -> "xen-extra"
  | Xen_private -> "xen-private"
  | Direct_map -> "direct-map"
  | Guest_kernel -> "guest-kernel"

let region_access ~hardened = function
  | Guest_low | Guest_kernel -> Read_write
  | M2p -> Read_only
  | Linear_pt | Xen_extra -> if hardened then No_access else Read_write
  | Xen_private | Direct_map -> No_access

let guest_access ~hardened va = region_access ~hardened (region_of_vaddr va)

let hypervisor_access va =
  match region_of_vaddr va with
  | Direct_map | Xen_private -> Read_write
  | M2p -> Read_write
  | Guest_low | Guest_kernel | Linear_pt | Xen_extra -> No_access

let directmap_of_maddr ma = Int64.add directmap_base ma

let maddr_of_directmap va =
  let va = Addr.canonical va in
  if va >= directmap_base && Addr.l4_index va <= directmap_end_slot && Addr.l4_index va >= directmap_slot
  then Some (Int64.sub va directmap_base)
  else None

let is_xen_l4_slot slot =
  slot = m2p_slot || (slot >= 260 && slot <= directmap_end_slot)

let guest_may_own_l4_slot ~hardened slot =
  if slot < 0 || slot > 511 then false
  else if is_xen_l4_slot slot then false
  else if slot >= 257 && slot <= 259 then not hardened
  else true

(* Silence unused warnings for documented bases that exist for clients. *)
let _ = xen_private_base
let _ = xen_extra_base
