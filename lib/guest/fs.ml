type file = { content : string; uid : int; gid : int }

(* [generation] moves on every write, removal and reset; [root] is
   {!root_files} as of generation [root_gen]. *)
type t = {
  files : (string, file) Hashtbl.t;
  mutable generation : int;
  mutable root : (string * string) list;
  mutable root_gen : int;
}

let create () = { files = Hashtbl.create 17; generation = 0; root = []; root_gen = 0 }
let touch t = t.generation <- t.generation + 1

let reset t =
  Hashtbl.reset t.files;
  touch t

let write t ~path ~uid content =
  Hashtbl.replace t.files path { content; uid; gid = uid };
  touch t

let read t path = Hashtbl.find_opt t.files path
let exists t path = Hashtbl.mem t.files path

let remove t path =
  Hashtbl.remove t.files path;
  touch t

let paths t = List.sort String.compare (Hashtbl.fold (fun k _ acc -> k :: acc) t.files [])
let fold f t acc = Hashtbl.fold f t.files acc
let generation t = t.generation

(* One pass over the files, and only the few root files sorted
   ([List.sort] builds its closures even for a list it returns as is). *)
let root_files t =
  if t.root_gen <> t.generation then begin
    t.root <-
      (match
         fold
           (fun path { uid; content; _ } acc ->
             if uid = 0 && content <> "" then (path, content) :: acc else acc)
           t []
       with
      | ([] | [ _ ]) as few -> few
      | many -> List.sort (fun (a, _) (b, _) -> String.compare a b) many);
    t.root_gen <- t.generation
  end;
  t.root

let readable_by file ~uid = uid = 0 || file.uid <> 0
