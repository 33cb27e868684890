module A1 = Bigarray.Array1

(* Bigarray reads and writes compile to unboxed loads and stores only
   where this type is known statically, so every buffer parameter
   carries it. *)
type rows = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

(* Words per row of the scratch buffer: one chunk of the pattern axis is
   64 words = 4096 patterns. A des-sized circuit's scratch (3.5 K rows)
   is then 1.8 MB per domain, off the OCaml heap, and stays
   cache-resident while every row of the chunk is evaluated. *)
let chunk_words = 64

let scratch ~rows : rows =
  let buf = A1.create Bigarray.int64 Bigarray.c_layout (rows * chunk_words) in
  A1.fill buf 0L;
  buf

let iter_chunks ~lo ~len f =
  let w0 = ref lo in
  while !w0 < lo + len do
    let words = min chunk_words (lo + len - !w0) in
    f ~w0:!w0 ~words;
    w0 := !w0 + words
  done

let run ?domains ~npat ~nwords ~work:(work_name, work_per_word) ~init piece =
  let module Tm = Runtime.Telemetry in
  let states = Array.make Runtime.Dpool.max_domains None in
  let stats =
    Runtime.Dpool.run ?domains ~units:nwords (fun ~worker ~lo ~len ->
        let st =
          match states.(worker) with
          | Some st -> st
          | None ->
              let st = init () in
              states.(worker) <- Some st;
              st
        in
        piece st ~lo ~len;
        if Tm.enabled () then begin
          Tm.count work_name (work_per_word * len);
          Tm.count
            (Printf.sprintf "sim.d%d.patterns_simulated" worker)
            (max 0 (min ((lo + len) * 64) npat - (lo * 64)))
        end)
  in
  Tm.observe "sim.domains" (float_of_int stats.Runtime.Dpool.domains_used);
  if stats.Runtime.Dpool.domains_used > 1 then
    Tm.observe "sim.parallel_speedup" (Runtime.Dpool.parallel_speedup stats);
  List.filter_map Fun.id (Array.to_list states)

(* Per-worker accumulators of the streaming sweep. [carry] is each row's
   last simulated bit; [masks] holds, per column of the current chunk,
   the bits that are real patterns and (second half) the bits that have
   a predecessor pattern. *)
type counter = {
  buf : rows;
  masks : rows;
  c_ones : int array;
  c_toggles : int array;
  carry : int array;
}

(* Bitvec's SWAR popcount, repeated here so it inlines into [count]
   without boxing. *)
let[@inline] popcount x =
  let x = Int64.sub x (Int64.logand (Int64.shift_right_logical x 1) 0x5555555555555555L) in
  let x =
    Int64.add
      (Int64.logand x 0x3333333333333333L)
      (Int64.logand (Int64.shift_right_logical x 2) 0x3333333333333333L)
  in
  let x = Int64.logand (Int64.add x (Int64.shift_right_logical x 4)) 0x0F0F0F0F0F0F0F0FL in
  Int64.to_int (Int64.shift_right_logical (Int64.mul x 0x0101010101010101L) 56)

(* Adds the ones and toggles of the chunk in the scratch to the
   counter. Bit i of [d] compares pattern 64w+i with its predecessor,
   which for i = 0 is the previous word's top bit. *)
let count st ~rows ~words =
  let buf = st.buf and masks = st.masks in
  for r = 0 to rows - 1 do
    let row = r * chunk_words in
    let ones = ref 0 and toggles = ref 0 in
    let prev = ref (Int64.of_int st.carry.(r)) in
    for j = 0 to words - 1 do
      let x = A1.unsafe_get buf (row + j) in
      let d = Int64.logxor x (Int64.logor (Int64.shift_left x 1) !prev) in
      ones := !ones + popcount (Int64.logand x (A1.unsafe_get masks j));
      toggles := !toggles + popcount (Int64.logand d (A1.unsafe_get masks (chunk_words + j)));
      prev := Int64.shift_right_logical x 63
    done;
    st.c_ones.(r) <- st.c_ones.(r) + !ones;
    st.c_toggles.(r) <- st.c_toggles.(r) + !toggles;
    st.carry.(r) <- Int64.to_int !prev
  done

let counts ?domains ~seed ~patterns ~rows ~inputs ~eval ~work () =
  let nwords = (patterns + 63) / 64 in
  let tail = Logic.Bitvec.tail_mask patterns in
  (* Input i's word w is draw i * nwords + w of one generator, exactly as
     [Nets.Sim.random_stimulus] fills its vectors. *)
  let stimulate (buf : rows) ~w0 ~words =
    Array.iteri
      (fun i r ->
        let rng = Logic.Prng.create seed in
        Logic.Prng.jump rng ((i * nwords) + w0);
        let row = r * chunk_words in
        for j = 0 to words - 1 do
          A1.unsafe_set buf (row + j) (Logic.Prng.next64 rng)
        done)
      inputs;
    eval buf ~words
  in
  let init () =
    {
      buf = scratch ~rows;
      masks = A1.create Bigarray.int64 Bigarray.c_layout (2 * chunk_words);
      c_ones = Array.make rows 0;
      c_toggles = Array.make rows 0;
      carry = Array.make rows 0;
    }
  in
  let counters =
    run ?domains ~npat:patterns ~nwords ~work ~init (fun st ~lo ~len ->
        (* A range that starts mid-sweep first simulates the word before
           it, so the toggle across the seam is counted exactly once. *)
        if lo > 0 then begin
          stimulate st.buf ~w0:(lo - 1) ~words:1;
          for r = 0 to rows - 1 do
            st.carry.(r) <-
              Int64.to_int
                (Int64.shift_right_logical (A1.unsafe_get st.buf (r * chunk_words)) 63)
          done
        end;
        iter_chunks ~lo ~len (fun ~w0 ~words ->
            for j = 0 to words - 1 do
              let w = w0 + j in
              let valid = if w = nwords - 1 then tail else -1L in
              A1.unsafe_set st.masks j valid;
              A1.unsafe_set st.masks (chunk_words + j)
                (if w = 0 then Int64.logand valid (-2L) else valid)
            done;
            stimulate st.buf ~w0 ~words;
            count st ~rows ~words))
  in
  let sum field =
    let total = Array.make rows 0 in
    List.iter
      (fun st -> Array.iteri (fun r v -> total.(r) <- total.(r) + v) (field st))
      counters;
    total
  in
  (sum (fun st -> st.c_ones), sum (fun st -> st.c_toggles))
