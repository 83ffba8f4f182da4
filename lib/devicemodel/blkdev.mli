(** A paravirtual block-device pair (blkfront/blkback style).

    The split-driver model is Xen's main I/O surface, and its backends
    are a steady source of advisories. This implementation is built on
    the real substrates: the frontend grants a shared ring page and a
    data page to the backend domain through the memory-backed grant
    table; the backend maps the grants, parses ring requests, and moves
    sectors between its disk (Xen-owned frames) and the guest's data
    page.

    The vulnerable variant carries a classic backend off-by-one: the
    sector bound check accepts [sector = capacity], so reading the
    one-past-the-end sector discloses whatever lives in the frame
    adjacent to the disk — here, a backend secret. The injector
    reproduces the same erroneous state (secret bytes in a
    guest-readable page) on the fixed backend with two
    [arbitrary_access] calls, which is exactly the paper's pitch for
    device-driver intrusion models. *)

module Ring : sig
  val req_prod_off : int
  val rsp_prod_off : int
  val slots : int
  val slot_off : int -> int
  (** Requests are 32 bytes: id, op (0 = read, 1 = write), sector,
      status (written by the backend: 0 ok, negative errno). *)

  val op_read : int64
  val op_write : int64
end

type backend

val sectors : int
(** Disk capacity in 512-byte sectors. *)

val secret : string
(** What lives in the frame right after the disk. *)

val create_backend :
  Hv.t -> backend_dom:Domain.t -> off_by_one:bool -> backend
(** Allocate the disk frames (and the adjacent secret frame) from the
    Xen heap and fill the disk with a recognizable pattern. *)

val secret_frame : backend -> Addr.mfn

type frontend

val connect :
  Kernel.t -> backend_domid:int -> ring_pfn:Addr.pfn -> data_pfn:Addr.pfn ->
  (frontend, Errno.t) result
(** Set up the grant table if needed, grant the ring and data pages to
    the backend, and initialize the ring. *)

val submit : frontend -> op:int64 -> sector:int -> (int, Errno.t) result
(** Queue a request; returns its ring id. *)

val backend_poll : backend -> frontend -> int
(** Map the grants, process every outstanding request, write statuses,
    unmap. Returns requests completed. *)

val response_status : frontend -> int -> int64 option
(** Status of request [id], if the backend answered. *)

val read_data : frontend -> off:int -> len:int -> (bytes, Paging.fault) result
(** Read the frontend's data page through the guest's own mapping. *)

val write_data : frontend -> off:int -> bytes -> (unit, Paging.fault) result
