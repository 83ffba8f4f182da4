(** A minimal per-guest filesystem.

    Just enough for the evaluation transcripts: the XSA-212-priv
    violation is the appearance of [/tmp/injector_log] owned by root in
    every domain, and the XSA-148-priv violation reads
    [/root/root_msg] over a reverse shell. *)

type file = { content : string; uid : int; gid : int }

type t
(** The files by path, a mutation generation and the memo of
    {!root_files}. {!write}, {!remove} and {!reset}, the only writers,
    each move the generation, so a reader can tell an untouched
    filesystem in O(1) and the memo is recomputed only after a change. *)

val create : unit -> t

val reset : t -> unit
(** Empty the filesystem in place: {!create}'s files, same object, a
    later generation. *)

val write : t -> path:string -> uid:int -> string -> unit
val read : t -> string -> file option
val exists : t -> string -> bool
val remove : t -> string -> unit
val paths : t -> string list

val fold : (string -> file -> 'a -> 'a) -> t -> 'a -> 'a
(** [fold f t acc] folds [f] over every file and its path, in no
    particular order. *)

val generation : t -> int
(** Moves on every {!write}, {!remove} and {!reset}; equal generations
    of one filesystem mean no mutation came between them. *)

val root_files : t -> (string * string) list
(** The non-empty root-owned files as [(path, content)], sorted by
    path: the secrets the monitor watches. Memoized: O(1) and
    allocation-free while the generation stands still. *)

val readable_by : file -> uid:int -> bool
(** Root reads everything; root-owned files are root-only; everything
    else is world-readable. *)
