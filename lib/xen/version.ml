type t = V4_6 | V4_8 | V4_13

let all = [ V4_6; V4_8; V4_13 ]
let to_string = function V4_6 -> "4.6" | V4_8 -> "4.8" | V4_13 -> "4.13"

let banner v =
  let patch = match v with V4_6 -> "4.6.0" | V4_8 -> "4.8.0" | V4_13 -> "4.13.0" in
  Printf.sprintf "Xen-%s x86_64 debug=y Not tainted" patch

let of_string = function
  | "4.6" | "v4.6" | "V4_6" -> Some V4_6
  | "4.8" | "v4.8" | "V4_8" -> Some V4_8
  | "4.13" | "v4.13" | "V4_13" -> Some V4_13
  | _ -> None

let xsa148_fixed = function V4_6 -> false | V4_8 | V4_13 -> true
let xsa182_fixed = function V4_6 -> false | V4_8 | V4_13 -> true
let xsa212_fixed = function V4_6 -> false | V4_8 | V4_13 -> true
let hardened_address_space = function V4_6 | V4_8 -> false | V4_13 -> true
let grant_frame_ownership_checked = function V4_6 -> false | V4_8 | V4_13 -> true
let venom_fixed = function V4_6 -> false | V4_8 | V4_13 -> true
let dm_handler_validation = function V4_6 | V4_8 -> false | V4_13 -> true
