type t = { len : int; data : int64 array }

let nwords len = (len + 63) / 64

let create len =
  assert (len >= 0);
  { len; data = Array.make (max 1 (nwords len)) 0L }

let length t = t.len
let words t = t.data

(* Mask clearing bits past [len] in the last word. *)
let tail_mask len =
  let r = len land 63 in
  if r = 0 then -1L else Int64.sub (Int64.shift_left 1L r) 1L

let clamp t =
  if t.len = 0 then t.data.(0) <- 0L
  else begin
    let last = nwords t.len - 1 in
    t.data.(last) <- Int64.logand t.data.(last) (tail_mask t.len)
  end

let get t i =
  assert (i >= 0 && i < t.len);
  Int64.logand (Int64.shift_right_logical t.data.(i lsr 6) (i land 63)) 1L = 1L

let set t i b =
  assert (i >= 0 && i < t.len);
  let w = i lsr 6 and m = Int64.shift_left 1L (i land 63) in
  t.data.(w) <-
    (if b then Int64.logor t.data.(w) m else Int64.logand t.data.(w) (Int64.lognot m))

let fill_random rng t =
  for w = 0 to Array.length t.data - 1 do
    t.data.(w) <- Prng.next64 rng
  done;
  clamp t

let map2 f a b =
  assert (a.len = b.len);
  let r = create a.len in
  for w = 0 to Array.length r.data - 1 do
    r.data.(w) <- f a.data.(w) b.data.(w)
  done;
  clamp r;
  r

let logand = map2 Int64.logand
let logor = map2 Int64.logor
let logxor = map2 Int64.logxor

let lognot a =
  let r = create a.len in
  for w = 0 to Array.length r.data - 1 do
    r.data.(w) <- Int64.lognot a.data.(w)
  done;
  clamp r;
  r

let equal a b = a.len = b.len && a.data = b.data

let popcount_word x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

let popcount t = Array.fold_left (fun acc w -> acc + popcount_word w) 0 t.data

let transitions t =
  if t.len <= 1 then 0
  else begin
    let count = ref 0 in
    let last_word = nwords t.len - 1 in
    for w = 0 to last_word do
      let x = t.data.(w) in
      (* Toggles inside the word: bit i vs bit i+1. *)
      let shifted = Int64.shift_right_logical x 1 in
      let inner = Int64.logxor x shifted in
      (* The top comparison of the word pairs bit 63 with the next word's bit 0
         (or is out of range for the final partial word); mask it out here and
         handle the seam below. *)
      let valid_bits = if w = last_word then (t.len - 1) land 63 else 63 in
      let mask =
        if valid_bits = 0 then 0L else Int64.sub (Int64.shift_left 1L valid_bits) 1L
      in
      count := !count + popcount_word (Int64.logand inner mask);
      if w < last_word then begin
        let hi = Int64.shift_right_logical x 63 in
        let lo = Int64.logand t.data.(w + 1) 1L in
        if hi <> lo then incr count
      end
    done;
    !count
  end

let copy t = { len = t.len; data = Array.copy t.data }

let pp ppf t =
  for i = t.len - 1 downto 0 do
    Format.pp_print_char ppf (if get t i then '1' else '0')
  done
