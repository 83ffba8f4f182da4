type t = { flags : Bytes.t; mutable stack : int array; mutable count : int }

let create n = { flags = Bytes.make n '\000'; stack = Array.make (min n 32) 0; count = 0 }

let grow t =
  let stack = Array.make (Bytes.length t.flags) 0 in
  Array.blit t.stack 0 stack 0 t.count;
  t.stack <- stack

let add t i =
  if Bytes.get t.flags i = '\000' then begin
    Bytes.unsafe_set t.flags i '\001';
    if t.count = Array.length t.stack then grow t;
    Array.unsafe_set t.stack t.count i;
    t.count <- t.count + 1
  end

let mem t i = i >= 0 && i < Bytes.length t.flags && Bytes.unsafe_get t.flags i = '\001'

let clear t =
  for k = 0 to t.count - 1 do
    Bytes.unsafe_set t.flags (Array.unsafe_get t.stack k) '\000'
  done;
  t.count <- 0
