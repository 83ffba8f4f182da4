type owner = Free | Xen | Dom of int

(* Owners are stored as ints, so recording one is a plain store with no
   write barrier: [Free] is -1, [Xen] -2 and [Dom d] is [d]. *)
let free_code = -1

let code = function
  | Free -> free_code
  | Xen -> -2
  | Dom d -> if d >= 0 then d else invalid_arg "Phys_mem: negative domain id"

let decode c = if c >= 0 then Dom c else if c = free_code then Free else Xen

(* Free frames are tracked in a bitmap, 62 frames per word (OCaml ints
   are 63-bit; the top bit stays clear so a full word is [max_int]), so
   [alloc] finds the lowest free frame with a word scan + bit scan
   instead of an O(frames) owner-array rescan. *)
let bits_per_word = 62

type t = {
  frames : Frame.t array;
  owners : int array;  (* owner codes *)
  free_bits : int array;  (* bit [b] of word [w] set iff frame [w*62+b] is Free *)
  mutable free_count : int;
  mutable next_hint : int;  (* no word below this index has a free bit *)
  dirty : Touched.t;  (* the frames touched since the baseline, first touch first *)
  scrubbed : Bytes.t;
  (* '\001' = the frame is known to hold all zeroes ([create]/[free]
     scrub; content writes clear the flag). Lets [alloc] skip the
     zero-fill and lets reset skip 4 KiB copies for frames that merely
     changed owner — the memory-exhaustion trials allocate thousands of
     frames they never write. *)
  mutable gen : int;  (* bumped when cached translations may go stale (free/reset) *)
  mutable baseline : t option;
      (* the frozen template this memory resets to: the one it was
         forked from, or the snapshot its last [capture_baseline] froze *)
  mutable baseline_epoch : int;  (* identifies which baseline is current *)
  mutable prov : Provenance.t option;
      (* byte-granular taint shadow; detached (None) by default so the
         provenance-off cost is one option match per write path *)
  mutable frozen : bool;
      (* an immutable fork template: any mutation raises. Frozen
         memories are safe to share between domains (all reads). *)
  cow : Bytes.t;
  (* '\001' = the frame's [Frame.t] is still physically shared: with
     [zero_frame] in a memory from [create], with the frozen template in
     one from [fork] or [capture_baseline]; the first content write
     replaces it with a private copy (see [unshare]) *)
  mutable cow_count : int;
  mutable spares : Frame.t array;
      (* storage of private frames a reset let go of, in
         [spares.(0 .. spare_count - 1)]: the next [unshare] or [scrub]
         fills one instead of allocating. Never shared between memories,
         so forks on concurrent domains never hand out one frame twice. *)
  mutable spare_count : int;
  mutable claimed : int array;  (* [claim]'s result buffer, made on first use *)
}

exception Bad_maddr of Addr.maddr

(* The one all-zero frame every fresh memory's frames alias until their
   first content write, and the page a walk reads outside installed RAM.
   Shared by every memory, so by concurrent domains too, and never
   written: every write path unshares first (see [unshare], [scrub]). *)
let zero_frame = Frame.create ()

let create ~frames =
  if frames <= 0 then invalid_arg "Phys_mem.create: frames must be positive";
  let words = ((frames + bits_per_word - 1) / bits_per_word) in
  let free_bits =
    Array.init words (fun w ->
        let base = w * bits_per_word in
        let n = min bits_per_word (frames - base) in
        if n = bits_per_word then max_int else (1 lsl n) - 1)
  in
  {
    frames = Array.make frames zero_frame;
    owners = Array.make frames free_code;
    free_bits;
    free_count = frames;
    next_hint = 0;
    dirty = Touched.create frames;
    scrubbed = Bytes.make frames '\001';
    gen = 0;
    baseline = None;
    baseline_epoch = 0;
    prov = None;
    frozen = false;
    cow = Bytes.make frames '\001';
    cow_count = frames;
    spares = [||];
    spare_count = 0;
    claimed = [||];
  }

let total_frames t = Array.length t.frames
let is_valid_mfn t mfn = mfn >= 0 && mfn < total_frames t
let generation t = t.gen

(* --- provenance -------------------------------------------------------- *)

let set_provenance t p =
  if t.frozen then invalid_arg "Phys_mem.set_provenance: template is frozen";
  t.prov <- p
let provenance t = t.prov

let enable_provenance t ~tr =
  if t.prov = None then set_provenance t (Some (Provenance.create ~tr ()))

let taint t ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len

let observe t ~consumer ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.observe p ~consumer ~mfn ~off ~len

let with_origin t origin f =
  match t.prov with None -> f () | Some p -> Provenance.with_origin p origin f

let prov_clear_frame t mfn =
  match t.prov with None -> () | Some p -> Provenance.clear_frame p mfn

(* --- dirty tracking --------------------------------------------------- *)

let check_mutable t =
  if t.frozen then invalid_arg "Phys_mem: frozen fork template is immutable"

(* Conservative: anything that can mutate a frame marks it dirty first,
   so the reset knows to restore it. *)
let mark_dirty t mfn =
  check_mutable t;
  if Bytes.unsafe_get t.dirty.Touched.flags mfn = '\000' then Touched.add t.dirty mfn

(* A private frame holding [src]'s bytes, in a spare's storage when the
   stack has one: in steady state a write copies its frame once and
   allocates nothing. *)
let private_copy t src =
  let n = t.spare_count - 1 in
  if n < 0 then Frame.copy src
  else begin
    let f = Array.unsafe_get t.spares n in
    t.spare_count <- n;
    Frame.restore_from f ~src;
    f
  end

(* Hand a private frame's storage to the spare stack, which doubles
   when full. *)
let push_spare t f =
  let n = t.spare_count in
  if n = Array.length t.spares then begin
    let grown = Array.make (max 8 (2 * n)) zero_frame in
    Array.blit t.spares 0 grown 0 n;
    t.spares <- grown
  end;
  Array.unsafe_set t.spares n f;
  t.spare_count <- n + 1

(* Detach a COW-shared frame (the zero frame, or a template's frame)
   before the first content write: the memory gets a private copy (of
   the zero frame when the shared one is known-zero) and the shared
   bytes stay untouched — which is what lets many memories share one
   zero frame, and many forks one template, concurrently. *)
let unshare t mfn =
  if Bytes.unsafe_get t.cow mfn = '\001' then begin
    Bytes.unsafe_set t.cow mfn '\000';
    t.cow_count <- t.cow_count - 1;
    t.frames.(mfn) <-
      private_copy t
        (if Bytes.unsafe_get t.scrubbed mfn = '\001' then zero_frame else t.frames.(mfn))
  end

(* Call before any write that can make the frame's contents non-zero. *)
let mark_written t mfn =
  mark_dirty t mfn;
  unshare t mfn;
  Bytes.unsafe_set t.scrubbed mfn '\000'

let dirty_count t = t.dirty.Touched.count

(* A new memory at [t]'s state, in O(metadata): its frames are [t]'s
   own [Frame.t]s, and the counters, generation and epoch are [t]'s;
   its spare stack starts empty. *)
let copy_metadata t ~dirty ~cow ~baseline ~frozen =
  {
    t with
    frames = Array.copy t.frames;
    owners = Array.copy t.owners;
    free_bits = Array.copy t.free_bits;
    dirty;
    scrubbed = Bytes.copy t.scrubbed;
    baseline;
    prov = None;
    frozen;
    cow;
    cow_count = Bytes.length cow;
    spares = [||];
    spare_count = 0;
    claimed = [||];
  }

(* A checkpoint freezes a snapshot of [t]'s metadata and forks [t] from
   it in place: every frame becomes a copy-on-write alias of the
   snapshot's, so [t] resets exactly as a fork of the snapshot does. No
   frame bytes are copied; [t] keeps its spares, which no frame of the
   snapshot's is. *)
let capture_baseline t =
  if t.frozen then invalid_arg "Phys_mem.capture_baseline: template is frozen";
  if Option.is_some t.prov then
    invalid_arg "Phys_mem.capture_baseline: a provenance shadow is attached";
  let snapshot =
    copy_metadata t ~dirty:(Touched.create 0) ~cow:Bytes.empty ~baseline:None ~frozen:true
  in
  Bytes.fill t.cow 0 (Bytes.length t.cow) '\001';
  t.cow_count <- Bytes.length t.cow;
  Touched.clear t.dirty;
  t.baseline <- Some snapshot;
  t.baseline_epoch <- t.baseline_epoch + 1

let baseline_epoch t = t.baseline_epoch

let is_dirty t mfn = Touched.mem t.dirty mfn

(* --- free bitmap helpers ---------------------------------------------- *)

let set_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) lor (1 lsl b);
  if w < t.next_hint then t.next_hint <- w

let clear_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) land lnot (1 lsl b)

(* A fork's pre-image is the template frame itself. A still-shared frame
   already holds it; a private one goes back to sharing it, and its
   storage onto the spare stack for the next write to fill. So a reset
   copies no bytes, and a fork holds no more private frames than one
   trial writes. *)
let reset_from_template t tpl mfn =
  if Bytes.unsafe_get t.cow mfn = '\000' then begin
    push_spare t (Array.unsafe_get t.frames mfn);
    Array.unsafe_set t.frames mfn (Array.unsafe_get tpl.frames mfn);
    Bytes.unsafe_set t.cow mfn '\001';
    t.cow_count <- t.cow_count + 1;
    Bytes.unsafe_set t.scrubbed mfn (Bytes.unsafe_get tpl.scrubbed mfn)
  end;
  Array.unsafe_set t.owners mfn (Array.unsafe_get tpl.owners mfn)

(* Every dirty frame's bytes and owner go back to the baseline's, newest
   first, so every frame is shared with the baseline again; the free
   bitmap, a function of the owners, is copied back whole (a few dozen
   words). *)
let reset_to_baseline t =
  if t.frozen then invalid_arg "Phys_mem.reset_to_baseline: template is frozen";
  let tpl =
    match t.baseline with
    | Some tpl -> tpl
    | None -> invalid_arg "Phys_mem.reset_to_baseline: no baseline captured"
  in
  let dirty = t.dirty in
  let restored = dirty.Touched.count in
  for i = restored - 1 downto 0 do
    reset_from_template t tpl (Array.unsafe_get dirty.Touched.stack i)
  done;
  Array.blit tpl.free_bits 0 t.free_bits 0 (Array.length t.free_bits);
  t.free_count <- tpl.free_count;
  Touched.clear t.dirty;
  (* frames may have become free below the hint again *)
  t.next_hint <- 0;
  t.gen <- t.gen + 1;
  (match t.prov with None -> () | Some p -> Provenance.reset_to_baseline p);
  restored

(* --- copy-on-write forking --------------------------------------------
   A frozen memory is an immutable template: [fork] builds a new memory
   in O(metadata) whose frames all physically alias the template's, with
   an already-armed baseline equal to the template state. The first
   content write to any frame detaches it ([unshare]); frames the fork
   never writes are never copied, so a freshly forked testbed costs the
   metadata arrays rather than [frames] x 4 KiB — and [reset_to_baseline]
   re-shares the detached ones and skips the rest. *)

let freeze t =
  (match t.baseline with
  | None -> invalid_arg "Phys_mem.freeze: capture a baseline first"
  | Some _ -> ());
  if t.dirty.Touched.count <> 0 then
    invalid_arg "Phys_mem.freeze: template diverged from its baseline";
  t.frozen <- true

(* The fork is born exactly at the template's state, which is its
   baseline: resets work from trial one and read pre-images from the
   template instead of saving copies. *)
let fork template =
  if not template.frozen then invalid_arg "Phys_mem.fork: template must be frozen";
  let n = Array.length template.frames in
  copy_metadata template ~dirty:(Touched.create n) ~cow:(Bytes.make n '\001')
    ~baseline:(Some template) ~frozen:false

let shared_frames t = t.cow_count

(* --- ownership / allocation ------------------------------------------- *)

let frame t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_written t mfn;
  t.frames.(mfn)

let frame_ro t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  t.frames.(mfn)

let pt_frame t mfn ~index =
  if is_valid_mfn t mfn then begin
    observe t ~consumer:Provenance.Pt_walk ~mfn ~off:(8 * index) ~len:8;
    t.frames.(mfn)
  end
  else zero_frame

let frame_hash t mfn = Fnv.bytes (frame_ro t mfn :> bytes)

let owner t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  decode t.owners.(mfn)

let is_owner t mfn o =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  Array.unsafe_get t.owners mfn = code o

let set_owner t mfn o =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  let o = code o in
  mark_dirty t mfn;
  let was = t.owners.(mfn) in
  if was = free_code && o <> free_code then begin
    clear_free_bit t mfn;
    t.free_count <- t.free_count - 1
  end
  else if was <> free_code && o = free_code then begin
    set_free_bit t mfn;
    t.free_count <- t.free_count + 1
  end;
  t.owners.(mfn) <- o

(* The index of [word]'s lowest set bit ([word <> 0]), in six steps:
   isolate the bit, then halve the window it can be in. *)
let lowest_bit word =
  let x = ref (word land -word) and b = ref 0 in
  if !x land 0xFFFF_FFFF = 0 then begin x := !x lsr 32; b := 32 end;
  if !x land 0xFFFF = 0 then begin x := !x lsr 16; b := !b + 16 end;
  if !x land 0xFF = 0 then begin x := !x lsr 8; b := !b + 8 end;
  if !x land 0xF = 0 then begin x := !x lsr 4; b := !b + 4 end;
  if !x land 0x3 = 0 then begin x := !x lsr 2; b := !b + 2 end;
  if !x land 0x1 = 0 then b := !b + 1;
  !b

(* Zero a frame that is not known-zero (on [take] and [free]). *)
let scrub t mfn =
  Bytes.unsafe_set t.scrubbed mfn '\001';
  (* a shared frame is not scrubbed (that would corrupt the shared
     bytes) but detached, now known-zero, into a private zero frame *)
  if Bytes.unsafe_get t.cow mfn = '\001' then unshare t mfn
  else Frame.fill t.frames.(mfn) '\000';
  prov_clear_frame t mfn

(* Hand free frame [mfn], already marked dirty and whose free bit the
   caller cleared, to owner code [o]; the caller counts it. A scrubbed
   frame is already the zeroed page [alloc] promises. *)
let take t o mfn =
  Array.unsafe_set t.owners mfn o;
  if Bytes.unsafe_get t.scrubbed mfn = '\000' then scrub t mfn

let check_owner fn o =
  let o = code o in
  if o = free_code then invalid_arg (fn ^ ": cannot allocate to Free");
  o

let alloc t o =
  let o = check_owner "Phys_mem.alloc" o in
  let words = Array.length t.free_bits in
  let w = ref t.next_hint in
  while !w < words && t.free_bits.(!w) = 0 do incr w done;
  if !w >= words then failwith "Phys_mem.alloc: out of physical memory"
  else begin
    t.next_hint <- !w;
    let mfn = (!w * bits_per_word) + lowest_bit t.free_bits.(!w) in
    clear_free_bit t mfn;
    mark_dirty t mfn;
    take t o mfn;
    t.free_count <- t.free_count - 1;
    mfn
  end

(* [n] successive [alloc]s in one pass over the free bitmap: each word
   is read and written back once. *)
let claim t o n =
  let o = check_owner "Phys_mem.claim" o in
  if n > t.free_count then failwith "Phys_mem.claim: out of physical memory";
  if Array.length t.claimed < n then t.claimed <- Array.make (total_frames t) 0;
  let claimed = t.claimed in
  let k = ref 0 and w = ref t.next_hint in
  while !k < n do
    let bits = ref t.free_bits.(!w) in
    while !k < n && !bits <> 0 do
      let mfn = (!w * bits_per_word) + lowest_bit !bits in
      bits := !bits land (!bits - 1);
      mark_dirty t mfn;
      take t o mfn;
      Array.unsafe_set claimed !k mfn;
      incr k
    done;
    t.free_bits.(!w) <- !bits;
    if !bits = 0 then incr w
  done;
  t.free_count <- t.free_count - n;
  t.next_hint <- !w;
  claimed

let free t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_dirty t mfn;
  if t.owners.(mfn) <> free_code then begin
    set_free_bit t mfn;
    t.free_count <- t.free_count + 1
  end;
  t.owners.(mfn) <- free_code;
  (* scrub on free, unless the frame is already known-zero *)
  if Bytes.unsafe_get t.scrubbed mfn = '\000' then scrub t mfn;
  (* a reused frame must never hit a stale cached translation *)
  t.gen <- t.gen + 1

let free_frames t = t.free_count

let frames_owned_by t o =
  let o = code o in
  let acc = ref [] in
  for i = total_frames t - 1 downto 0 do
    if t.owners.(i) = o then acc := i :: !acc
  done;
  !acc

(* --- access by (frame, offset) ------------------------------------------
   The CPU's path: it resolves a guest address to a frame and an offset
   once, then moves bytes with no machine address in between. Every
   access must lie within its frame; one that does not raises
   [Bad_maddr] at its machine address. *)

let check_span t mfn off len =
  if not (is_valid_mfn t mfn) || off < 0 || off + len > Addr.page_size then
    raise (Bad_maddr (Int64.add (Addr.maddr_of_mfn mfn) (Int64.of_int off)))

let get_u64 t mfn off =
  check_span t mfn off 8;
  Frame.get_u64 t.frames.(mfn) off

let set_u64 t mfn off v =
  check_span t mfn off 8;
  mark_written t mfn;
  Frame.set_u64 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:8

let set_u64_of_int t mfn off v =
  check_span t mfn off 8;
  mark_written t mfn;
  Frame.set_u64_of_int t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:8

let blit_out t mfn off buf pos len =
  check_span t mfn off len;
  Frame.blit_to_bytes t.frames.(mfn) off buf pos len

let blit_in t buf pos mfn off len =
  check_span t mfn off len;
  mark_written t mfn;
  Frame.blit_from_bytes buf pos t.frames.(mfn) off len;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len

(* --- access by machine address ----------------------------------------- *)

(* A scalar access must lie in one valid frame; returns its number. *)
let span_mfn t ma len =
  let mfn = Addr.mfn_of_maddr ma in
  if not (is_valid_mfn t mfn) || Addr.page_offset ma + len > Addr.page_size then
    raise (Bad_maddr ma);
  mfn

let read_u8 t ma = Frame.get_u8 t.frames.(span_mfn t ma 1) (Addr.page_offset ma)

let write_u8 t ma v =
  let mfn = span_mfn t ma 1 and off = Addr.page_offset ma in
  mark_written t mfn;
  Frame.set_u8 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:1

(* 64-bit accesses are required to be contained in one frame, as natural
   alignment guarantees on real hardware. *)
let read_u64 t ma = Frame.get_u64 t.frames.(span_mfn t ma 8) (Addr.page_offset ma)
let write_u64 t ma v = set_u64 t (span_mfn t ma 8) (Addr.page_offset ma) v

(* --- bulk transfers ---------------------------------------------------
   Blit frame-sized chunks instead of going byte by byte; a range that
   runs off the end of memory raises [Bad_maddr] at the first invalid
   frame boundary, exactly where the per-byte loop used to stop. *)

let read_into t ma buf pos len =
  let rec go ma pos len =
    if len > 0 then begin
      let mfn = Addr.mfn_of_maddr ma in
      if not (is_valid_mfn t mfn) then raise (Bad_maddr ma);
      let off = Addr.page_offset ma in
      let chunk = min len (Addr.page_size - off) in
      blit_out t mfn off buf pos chunk;
      go (Int64.add ma (Int64.of_int chunk)) (pos + chunk) (len - chunk)
    end
  in
  go ma pos len

let write_from t ma buf pos len =
  let rec go ma pos len =
    if len > 0 then begin
      let mfn = Addr.mfn_of_maddr ma in
      if not (is_valid_mfn t mfn) then raise (Bad_maddr ma);
      let off = Addr.page_offset ma in
      let chunk = min len (Addr.page_size - off) in
      blit_in t buf pos mfn off chunk;
      go (Int64.add ma (Int64.of_int chunk)) (pos + chunk) (len - chunk)
    end
  in
  go ma pos len

let read_bytes t ma len =
  let buf = Bytes.create len in
  read_into t ma buf 0 len;
  buf

let write_bytes t ma b = write_from t ma b 0 (Bytes.length b)
let write_string t ma s = write_bytes t ma (Bytes.of_string s)
