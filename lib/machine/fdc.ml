type config = { venom_vulnerable : bool; handler_validation : bool }

let fifo_size = 512
let memory_size = 4096
let handler_offset = fifo_size
let legitimate_handler = 0x0000_7f00_feed_face0L

type t = {
  cfg : config;
  memory : bytes;  (** device-model process memory: FIFO + neighbours *)
  mutable fifo_len : int;
}

let set_handler t v = Bytes.set_int64_le t.memory handler_offset v
let handler_value t = Bytes.get_int64_le t.memory handler_offset

let create cfg =
  let t = { cfg; memory = Bytes.make memory_size '\000'; fifo_len = 0 } in
  set_handler t legitimate_handler;
  t

let config t = t.cfg

type command = Fd_write_data of bytes | Fd_read_id | Fd_reset

let issue t = function
  | Fd_read_id -> Ok ()
  | Fd_reset ->
      t.fifo_len <- 0;
      Ok ()
  | Fd_write_data data ->
      let len = Bytes.length data in
      if t.cfg.venom_vulnerable then begin
        (* The VENOM defect: no bound on the buffered length. Data past
           the FIFO end lands in the adjacent device-model memory. *)
        let len = min len (memory_size - t.fifo_len) in
        Bytes.blit data 0 t.memory t.fifo_len len;
        t.fifo_len <- min fifo_size (t.fifo_len + len);
        Ok ()
      end
      else if t.fifo_len + len > fifo_size then Error "fdc: input exceeds FIFO (rejected)"
      else begin
        Bytes.blit data 0 t.memory t.fifo_len len;
        t.fifo_len <- t.fifo_len + len;
        Ok ()
      end

let inject_overflow t data =
  let len = min (Bytes.length data) (memory_size - fifo_size) in
  Bytes.blit data 0 t.memory fifo_size len

let handler_intact t = handler_value t = legitimate_handler

let kick t =
  if handler_intact t then `Dispatched
  else if t.cfg.handler_validation then `Rejected_corrupt_handler
  else `Hijacked (handler_value t)

let reset t =
  Bytes.fill t.memory 0 memory_size '\000';
  set_handler t legitimate_handler;
  t.fifo_len <- 0
