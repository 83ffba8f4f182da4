type owner = Free | Xen | Dom of int

(* Free frames are tracked in a bitmap, 62 frames per word (OCaml ints
   are 63-bit; the top bit stays clear so a full word is [max_int]), so
   [alloc] finds the lowest free frame with a word scan + bit scan
   instead of an O(frames) owner-array rescan. *)
let bits_per_word = 62

type baseline =
  | Captured of {
      (* pre-images of frames dirtied since capture, copied lazily on
         the first write to each frame; [None] means the frame was a
         scrubbed (all-zero) frame at capture time, so no bytes need
         storing *)
      b_pre : (int, bytes option * owner) Hashtbl.t;
      b_free_count : int;
    }
  | Template of t
      (* a fork's birth baseline is its frozen template, which never
         changes: dirtying records nothing, and reset reads each dirty
         frame's pre-image (bytes, owner, scrubbed flag) from it *)

and t = {
  frames : Frame.t array;
  owners : owner array;
  free_bits : int array;  (* bit [b] of word [w] set iff frame [w*62+b] is Free *)
  mutable free_count : int;
  mutable next_hint : int;  (* no word below this index has a free bit *)
  dirty : Bytes.t;  (* one byte per frame: '\001' = touched since baseline *)
  scrubbed : Bytes.t;
  (* '\001' = the frame is known to hold all zeroes ([create]/[free]
     scrub; content writes clear the flag). Lets [alloc] skip the
     zero-fill and lets baseline capture/reset skip 4 KiB copies for
     frames that merely changed owner — the memory-exhaustion trials
     allocate thousands of frames they never write. *)
  mutable dirty_frames : int list;
  mutable gen : int;  (* bumped when cached translations may go stale (free/reset) *)
  mutable baseline : baseline option;
  mutable baseline_epoch : int;  (* identifies which baseline is current *)
  mutable prov : Provenance.t option;
      (* byte-granular taint shadow; detached (None) by default so the
         provenance-off cost is one option match per write path *)
  mutable frozen : bool;
      (* an immutable fork template: any mutation raises. Frozen
         memories are safe to share between domains (all reads). *)
  cow : Bytes.t;
  (* '\001' = the frame's [Frame.t] is still physically shared with the
     frozen template this memory was forked from; the first content
     write replaces it with a private copy (see [unshare]) *)
  mutable cow_count : int;
}

exception Bad_maddr of Addr.maddr

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
    frames = Array.init frames (fun _ -> Frame.create ());
    owners = Array.make frames Free;
    free_bits;
    free_count = frames;
    next_hint = 0;
    dirty = Bytes.make frames '\000';
    scrubbed = Bytes.make frames '\001';
    dirty_frames = [];
    gen = 0;
    baseline = None;
    baseline_epoch = 0;
    prov = None;
    frozen = false;
    cow = Bytes.make frames '\000';
    cow_count = 0;
  }

let total_frames t = Array.length t.frames
let is_valid_mfn t mfn = mfn >= 0 && mfn < total_frames t
let generation t = t.gen

(* --- provenance -------------------------------------------------------- *)

let set_provenance t p =
  if t.frozen then invalid_arg "Phys_mem.set_provenance: template is frozen";
  t.prov <- p
let provenance t = t.prov

let taint t ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len

let observe t ~consumer ~mfn ~off ~len =
  match t.prov with None -> () | Some p -> Provenance.observe p ~consumer ~mfn ~off ~len

let with_origin t origin f =
  match t.prov with None -> f () | Some p -> Provenance.with_origin p origin f

let prov_clear_frame t mfn =
  match t.prov with None -> () | Some p -> Provenance.clear_frame p mfn

(* --- dirty tracking --------------------------------------------------- *)

(* Conservative: anything that can mutate a frame marks it dirty first,
   so the pre-image under [baseline] is taken before the write lands. *)
let mark_dirty t mfn =
  if t.frozen then invalid_arg "Phys_mem: frozen fork template is immutable";
  if Bytes.unsafe_get t.dirty mfn = '\000' then begin
    Bytes.unsafe_set t.dirty mfn '\001';
    t.dirty_frames <- mfn :: t.dirty_frames;
    match t.baseline with
    | Some (Captured b) ->
        let img =
          if Bytes.unsafe_get t.scrubbed mfn = '\001' then None
          else Some (Frame.to_bytes t.frames.(mfn))
        in
        Hashtbl.replace b.b_pre mfn (img, t.owners.(mfn))
    | Some (Template _) | None -> ()
  end

(* Detach a COW-shared frame from its template before the first content
   write: the fork gets a private copy (or a fresh zero frame when the
   shared one is known-zero) and the template's bytes stay untouched —
   which is what lets many forks share one template concurrently. *)
let unshare t mfn =
  if Bytes.unsafe_get t.cow mfn = '\001' then begin
    Bytes.unsafe_set t.cow mfn '\000';
    t.cow_count <- t.cow_count - 1;
    t.frames.(mfn) <-
      (if Bytes.unsafe_get t.scrubbed mfn = '\001' then Frame.create ()
       else Frame.copy t.frames.(mfn))
  end

(* Call before any write that can make the frame's contents non-zero. *)
let mark_written t mfn =
  mark_dirty t mfn;
  unshare t mfn;
  Bytes.unsafe_set t.scrubbed mfn '\000'

let dirty_count t = List.length t.dirty_frames

let capture_baseline t =
  if t.frozen then invalid_arg "Phys_mem.capture_baseline: template is frozen";
  List.iter (fun mfn -> Bytes.set t.dirty mfn '\000') t.dirty_frames;
  t.dirty_frames <- [];
  t.baseline <- Some (Captured { b_pre = Hashtbl.create 64; b_free_count = t.free_count });
  t.baseline_epoch <- t.baseline_epoch + 1;
  match t.prov with None -> () | Some p -> Provenance.capture_baseline p

let baseline_epoch t = t.baseline_epoch

let dirty_list t = t.dirty_frames

(* --- free bitmap helpers ---------------------------------------------- *)

let set_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) lor (1 lsl b);
  if w < t.next_hint then t.next_hint <- w

let clear_free_bit t mfn =
  let w = mfn / bits_per_word and b = mfn mod bits_per_word in
  t.free_bits.(w) <- t.free_bits.(w) land lnot (1 lsl b)

(* Return frame [mfn]'s owner to [o], keeping the free bitmap in step
   (the free count is restored wholesale by the caller). *)
let restore_owner t mfn o =
  (match (t.owners.(mfn), o) with
  | Free, Free -> ()
  | Free, _ -> clear_free_bit t mfn
  | _, Free -> set_free_bit t mfn
  | _, _ -> ());
  t.owners.(mfn) <- o

(* Zero a frame that held zeroes at baseline, if it was written since. *)
let rescrub t mfn =
  if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
    Frame.fill t.frames.(mfn) '\000';
    Bytes.unsafe_set t.scrubbed mfn '\001'
  end

(* A captured baseline replays the pre-images saved on first touch. *)
let reset_captured t b_pre mfn =
  match Hashtbl.find_opt b_pre mfn with
  | Some (img, o) ->
      (match img with
      | Some img ->
          (* a frame still COW-shared with the template was never
             content-written (writes unshare first), so its bytes
             already equal the pre-image: skip the 4 KiB restore — and
             never write into the shared template frame *)
          if Bytes.unsafe_get t.cow mfn = '\000' then begin
            Frame.restore_image t.frames.(mfn) img;
            Bytes.unsafe_set t.scrubbed mfn '\000'
          end
      | None -> rescrub t mfn);
      restore_owner t mfn o;
      1
  | None -> 0

(* A fork's pre-image is the template frame itself. A still-shared frame
   already holds it; a private one gets the template's bytes blitted in
   and keeps its own storage, so steady-state trials copy no frames. *)
let reset_from_template t tpl mfn =
  if Bytes.unsafe_get t.cow mfn = '\000' then begin
    if Bytes.unsafe_get tpl.scrubbed mfn = '\001' then rescrub t mfn
    else begin
      Frame.restore_from t.frames.(mfn) ~src:tpl.frames.(mfn);
      Bytes.unsafe_set t.scrubbed mfn '\000'
    end
  end;
  restore_owner t mfn tpl.owners.(mfn)

let reset_to_baseline t =
  if t.frozen then invalid_arg "Phys_mem.reset_to_baseline: template is frozen";
  let restored = ref 0 in
  (match t.baseline with
  | None -> invalid_arg "Phys_mem.reset_to_baseline: no baseline captured"
  | Some (Captured b) ->
      List.iter
        (fun mfn ->
          restored := !restored + reset_captured t b.b_pre mfn;
          Bytes.unsafe_set t.dirty mfn '\000')
        t.dirty_frames;
      Hashtbl.reset b.b_pre;
      t.free_count <- b.b_free_count
  | Some (Template tpl) ->
      List.iter
        (fun mfn ->
          reset_from_template t tpl mfn;
          Bytes.unsafe_set t.dirty mfn '\000';
          incr restored)
        t.dirty_frames;
      t.free_count <- tpl.free_count);
  t.dirty_frames <- [];
  (* frames may have become free below the hint again *)
  t.next_hint <- 0;
  t.gen <- t.gen + 1;
  (match t.prov with None -> () | Some p -> Provenance.reset_to_baseline p);
  !restored

(* --- copy-on-write forking --------------------------------------------
   A frozen memory is an immutable template: [fork] builds a new memory
   in O(metadata) whose frames all physically alias the template's, with
   an already-armed baseline equal to the template state. The first
   content write to any frame detaches it ([unshare]); frames the fork
   never writes are never copied, so a freshly forked testbed costs the
   metadata arrays rather than [frames] x 4 KiB — and [reset_to_baseline]
   skips still-shared frames entirely. *)

let freeze t =
  (match t.baseline with
  | None -> invalid_arg "Phys_mem.freeze: capture a baseline first"
  | Some _ -> ());
  if t.dirty_frames <> [] then
    invalid_arg "Phys_mem.freeze: template diverged from its baseline";
  t.frozen <- true

let is_frozen t = t.frozen

let fork template =
  if not template.frozen then invalid_arg "Phys_mem.fork: template must be frozen";
  let n = Array.length template.frames in
  {
    frames = Array.copy template.frames;  (* shares the Frame.t bytes *)
    owners = Array.copy template.owners;
    free_bits = Array.copy template.free_bits;
    free_count = template.free_count;
    next_hint = template.next_hint;
    dirty = Bytes.make n '\000';
    scrubbed = Bytes.copy template.scrubbed;
    dirty_frames = [];
    gen = template.gen;
    (* the fork is born exactly at the template's state, which is its
       baseline: resets work from trial one and read pre-images from
       the template instead of saving copies *)
    baseline = Some (Template template);
    baseline_epoch = template.baseline_epoch;
    prov = None;
    frozen = false;
    cow = Bytes.make n '\001';
    cow_count = n;
  }

let shared_frames t = t.cow_count

(* --- ownership / allocation ------------------------------------------- *)

let frame t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_written t mfn;
  t.frames.(mfn)

let frame_ro t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  t.frames.(mfn)

let frame_hash t mfn = Frame.fnv64 (frame_ro t mfn)

let owner t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  t.owners.(mfn)

let set_owner t mfn o =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_dirty t mfn;
  (match (t.owners.(mfn), o) with
  | Free, Free -> ()
  | Free, _ ->
      clear_free_bit t mfn;
      t.free_count <- t.free_count - 1
  | _, Free ->
      set_free_bit t mfn;
      t.free_count <- t.free_count + 1
  | _, _ -> ());
  t.owners.(mfn) <- o

let lowest_bit word =
  let rec go b = if word land (1 lsl b) <> 0 then b else go (b + 1) in
  go 0

let alloc t o =
  if o = Free then invalid_arg "Phys_mem.alloc: cannot allocate to Free";
  let words = Array.length t.free_bits in
  let w = ref t.next_hint in
  while !w < words && t.free_bits.(!w) = 0 do incr w done;
  if !w >= words then failwith "Phys_mem.alloc: out of physical memory"
  else begin
    t.next_hint <- !w;
    let mfn = (!w * bits_per_word) + lowest_bit t.free_bits.(!w) in
    mark_dirty t mfn;
    clear_free_bit t mfn;
    t.owners.(mfn) <- o;
    t.free_count <- t.free_count - 1;
    (* a scrubbed frame is already the zeroed page [alloc] promises *)
    if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
      (if Bytes.unsafe_get t.cow mfn = '\001' then begin
         (* shared with the template: swap in a fresh zero frame rather
            than scrubbing (and thus corrupting) the shared bytes *)
         Bytes.unsafe_set t.cow mfn '\000';
         t.cow_count <- t.cow_count - 1;
         t.frames.(mfn) <- Frame.create ()
       end
       else Frame.fill t.frames.(mfn) '\000');
      Bytes.unsafe_set t.scrubbed mfn '\001';
      prov_clear_frame t mfn
    end;
    mfn
  end

let alloc_many t o n = List.init n (fun _ -> alloc t o)

let free t mfn =
  if not (is_valid_mfn t mfn) then raise (Bad_maddr (Addr.maddr_of_mfn mfn));
  mark_dirty t mfn;
  if t.owners.(mfn) <> Free then begin
    set_free_bit t mfn;
    t.free_count <- t.free_count + 1
  end;
  t.owners.(mfn) <- Free;
  (* scrub on free, unless the frame is already known-zero *)
  if Bytes.unsafe_get t.scrubbed mfn = '\000' then begin
    (if Bytes.unsafe_get t.cow mfn = '\001' then begin
       Bytes.unsafe_set t.cow mfn '\000';
       t.cow_count <- t.cow_count - 1;
       t.frames.(mfn) <- Frame.create ()
     end
     else Frame.fill t.frames.(mfn) '\000');
    Bytes.unsafe_set t.scrubbed mfn '\001';
    prov_clear_frame t mfn
  end;
  (* a reused frame must never hit a stale cached translation *)
  t.gen <- t.gen + 1

let free_frames t = t.free_count

let frames_owned_by t o =
  let acc = ref [] in
  for i = total_frames t - 1 downto 0 do
    if t.owners.(i) = o then acc := i :: !acc
  done;
  !acc

let split t ma len =
  let mfn = Addr.mfn_of_maddr ma in
  if not (is_valid_mfn t mfn) then raise (Bad_maddr ma);
  let off = Addr.page_offset ma in
  if off + len > Addr.page_size then raise (Bad_maddr ma) else (mfn, off)

let read_u8 t ma =
  let mfn, off = split t ma 1 in
  Frame.get_u8 t.frames.(mfn) off

let write_u8 t ma v =
  let mfn, off = split t ma 1 in
  mark_written t mfn;
  Frame.set_u8 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:1

(* 64-bit accesses are required to be contained in one frame, as natural
   alignment guarantees on real hardware. *)
let read_u64 t ma =
  let mfn, off = split t ma 8 in
  Frame.get_u64 t.frames.(mfn) off

let write_u64 t ma v =
  let mfn, off = split t ma 8 in
  mark_written t mfn;
  Frame.set_u64 t.frames.(mfn) off v;
  match t.prov with None -> () | Some p -> Provenance.taint p ~mfn ~off ~len:8

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
      Frame.blit_to_bytes t.frames.(mfn) off buf pos chunk;
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
      mark_written t mfn;
      Frame.blit_from_bytes buf pos t.frames.(mfn) off chunk;
      (match t.prov with
      | None -> ()
      | Some p -> Provenance.taint p ~mfn ~off ~len:chunk);
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
