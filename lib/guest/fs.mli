(** A minimal per-guest filesystem.

    Just enough for the evaluation transcripts: the XSA-212-priv
    violation is the appearance of [/tmp/injector_log] owned by root in
    every domain, and the XSA-148-priv violation reads
    [/root/root_msg] over a reverse shell. *)

type file = { content : string; uid : int; gid : int }
type t

val create : unit -> t

val reset : t -> unit
(** Empty the filesystem in place: {!create}'s state, same object. *)

val write : t -> path:string -> uid:int -> string -> unit
val read : t -> string -> file option
val exists : t -> string -> bool
val remove : t -> string -> unit
val paths : t -> string list

val fold : (string -> file -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] folds [f] over every file and its path, in no
    particular order. *)

val readable_by : file -> uid:int -> bool
(** Root reads everything; root-owned files are root-only; everything
    else is world-readable. *)
