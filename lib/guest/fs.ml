type file = { content : string; uid : int; gid : int }
type t = (string, file) Hashtbl.t

let create () = Hashtbl.create 17
let reset t = Hashtbl.reset t
let write t ~path ~uid content = Hashtbl.replace t path { content; uid; gid = uid }
let read t path = Hashtbl.find_opt t path
let exists t path = Hashtbl.mem t path
let remove t path = Hashtbl.remove t path
let paths t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t [])
let fold f t acc = Hashtbl.fold f t acc

let readable_by file ~uid = uid = 0 || file.uid <> 0
