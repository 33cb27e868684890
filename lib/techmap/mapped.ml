module G = Cell.Genlib
module B = Logic.Bitvec
module T = Logic.Truthtable

type cell = { gate : G.gate; inputs : int array; output : int }

type t = {
  lib : G.t;
  num_nets : int;
  pi_nets : (string * int) array;
  po_nets : (string * int) array;
  const_nets : (int * bool) array;
  cells : cell array;
}

let num_gates t = Array.length t.cells
let area t = Array.fold_left (fun acc c -> acc +. c.gate.G.area) 0.0 t.cells

let arrival_times t =
  let arr = Array.make t.num_nets 0.0 in
  Array.iter
    (fun c ->
      let worst = Array.fold_left (fun acc net -> max acc arr.(net)) 0.0 c.inputs in
      arr.(c.output) <- worst +. c.gate.G.delay)
    t.cells;
  arr

let delay t =
  let arr = arrival_times t in
  Array.fold_left (fun acc (_, net) -> max acc arr.(net)) 0.0 t.po_nets

let net_loads ?(wire_cap_per_fanout = 0.0) t =
  let loads = Array.make t.num_nets 0.0 in
  Array.iter
    (fun c ->
      loads.(c.output) <- loads.(c.output) +. c.gate.G.output_drain_cap;
      Array.iteri
        (fun pin net ->
          loads.(net) <- loads.(net) +. c.gate.G.input_caps.(pin) +. wire_cap_per_fanout)
        c.inputs)
    t.cells;
  Array.iter
    (fun (_, net) ->
      loads.(net) <- loads.(net) +. Spice.Tech.inverter_input_cap t.lib.G.tech)
    t.po_nets;
  loads

let gate_histogram t =
  let counts = Hashtbl.create 32 in
  Array.iter
    (fun c ->
      let name = c.gate.G.cell.Cell.Cells.name in
      Hashtbl.replace counts name (1 + Option.value ~default:0 (Hashtbl.find_opt counts name)))
    t.cells;
  Hashtbl.fold (fun name count acc -> (name, count) :: acc) counts []
  |> List.sort (fun (_, a) (_, b) -> compare b a)

(* ------------------------------------------------------------------ *)
(* Bit-parallel simulation kernel                                       *)

module A1 = Bigarray.Array1

(* Bigarray reads and writes compile to unboxed loads and stores only
   where this type is known statically, so every buffer parameter
   carries it. *)
type rows = (int64, Bigarray.int64_elt, Bigarray.c_layout) A1.t

(* Words per net row of the scratch buffer: one chunk of the pattern
   axis is 64 words = 4096 patterns. A des-sized netlist's scratch
   (3.5 K nets) is then 1.8 MB per domain, off the OCaml heap, and stays
   cache-resident while every cell of the chunk is evaluated. *)
let chunk_words = 64

(* The cells lowered to flat integer arrays, so the kernel is raw word
   loops: cell [c] ORs cubes [cell_first.(c) .. cell_first.(c+1) - 1];
   cube [k] ANDs literals [cube_first.(k) .. cube_first.(k+1) - 1]; a
   literal is its net's scratch-row offset shifted left once, low bit set
   when the literal is negated. *)
type program = {
  out_rows : int array;
  cell_first : int array;
  cube_first : int array;
  lits : int array;
}

let lower t =
  let covers = Hashtbl.create 32 in
  let cover_of gate =
    let name = gate.G.cell.Cell.Cells.name in
    match Hashtbl.find_opt covers name with
    | Some cubes -> cubes
    | None ->
        let cubes = T.isop (Cell.Cells.tt gate.G.cell) in
        Hashtbl.replace covers name cubes;
        cubes
  in
  let literals c cube =
    List.concat
      (List.mapi
         (fun pin net ->
           let row = (net * chunk_words) lsl 1 in
           if (cube.T.pos lsr pin) land 1 = 1 then [ row ]
           else if (cube.T.neg lsr pin) land 1 = 1 then [ row lor 1 ]
           else [])
         (Array.to_list c.inputs))
  in
  let cells = Array.map (fun c -> List.map (literals c) (cover_of c.gate)) t.cells in
  let cubes = Array.of_list (List.concat (Array.to_list cells)) in
  (* [first.(i)] is where element i's items start in the flattened array. *)
  let offsets lengths =
    let first = Array.make (Array.length lengths + 1) 0 in
    Array.iteri (fun i n -> first.(i + 1) <- first.(i) + n) lengths;
    first
  in
  {
    out_rows = Array.map (fun c -> c.output * chunk_words) t.cells;
    cell_first = offsets (Array.map List.length cells);
    cube_first = offsets (Array.map List.length cubes);
    lits = Array.of_list (List.concat (Array.to_list cubes));
  }

(* Evaluates every cell on the first [words] columns of the scratch, in
   topological order; input rows must already hold the stimulus. Columns
   are independent, so any chunking of the pattern axis yields the same
   bits. *)
let eval p (buf : rows) ~words =
  let cell_first = p.cell_first and cube_first = p.cube_first and lits = p.lits in
  for c = 0 to Array.length p.out_rows - 1 do
    let out = p.out_rows.(c) in
    let k0 = cell_first.(c) and k1 = cell_first.(c + 1) in
    for w = 0 to words - 1 do
      let acc = ref 0L in
      for k = k0 to k1 - 1 do
        let prod = ref (-1L) in
        for l = Array.unsafe_get cube_first k to Array.unsafe_get cube_first (k + 1) - 1 do
          let lit = Array.unsafe_get lits l in
          let v = A1.unsafe_get buf ((lit lsr 1) + w) in
          prod := Int64.logand !prod (Int64.logxor v (Int64.of_int (-(lit land 1))))
        done;
        acc := Int64.logor !acc !prod
      done;
      A1.unsafe_set buf (out + w) !acc
    done
  done

(* A worker's scratch: one [chunk_words] row per net. Constant nets are
   written once; the kernel only ever writes cell-output rows. *)
let scratch t : rows =
  let buf = A1.create Bigarray.int64 Bigarray.c_layout (t.num_nets * chunk_words) in
  A1.fill buf 0L;
  Array.iter
    (fun (net, b) -> if b then A1.fill (A1.sub buf (net * chunk_words) chunk_words) (-1L))
    t.const_nets;
  buf

(* Calls [f ~w0 ~words] on consecutive chunks covering [lo, lo + len). *)
let iter_chunks ~lo ~len f =
  let w0 = ref lo in
  while !w0 < lo + len do
    let words = min chunk_words (lo + len - !w0) in
    f ~w0:!w0 ~words;
    w0 := !w0 + words
  done

(* Shards [nwords] words of the pattern axis across domains. Each worker
   builds its state with [init] once, on the first range it pulls, and
   runs [piece st ~lo ~len] on every range; the per-worker states come
   back for the caller to reduce. Records the simulator telemetry shared
   by every entry point. *)
let sweep ?domains t p ~npat ~nwords ~init piece =
  let module Tm = Runtime.Telemetry in
  let states = Array.make Runtime.Dpool.max_domains None in
  let cubes = Array.length p.cube_first - 1 in
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
          Tm.count "mapped.sim.cube_words" (cubes * len);
          Tm.count
            (Printf.sprintf "sim.d%d.patterns_simulated" worker)
            (max 0 (min ((lo + len) * 64) npat - (lo * 64)))
        end)
  in
  Tm.count "mapped.sim.cells" (Array.length t.cells);
  Tm.observe "sim.domains" (float_of_int stats.Runtime.Dpool.domains_used);
  if stats.Runtime.Dpool.domains_used > 1 then
    Tm.observe "sim.parallel_speedup" (Runtime.Dpool.parallel_speedup stats);
  List.filter_map Fun.id (Array.to_list states)

let simulate ?domains t stimulus =
  assert (Array.length stimulus = Array.length t.pi_nets);
  let npat = if Array.length stimulus = 0 then 0 else B.length stimulus.(0) in
  let values = Array.make t.num_nets (B.create npat) in
  Array.iteri (fun i (_, net) -> values.(net) <- stimulus.(i)) t.pi_nets;
  Array.iter
    (fun (net, b) -> if b then values.(net) <- B.lognot (B.create npat))
    t.const_nets;
  Array.iter (fun c -> values.(c.output) <- B.create npat) t.cells;
  let p = lower t in
  let copy_in (buf : rows) ~w0 ~words =
    Array.iteri
      (fun i (_, net) ->
        let src = B.words stimulus.(i) and row = net * chunk_words in
        for j = 0 to words - 1 do
          A1.unsafe_set buf (row + j) src.(w0 + j)
        done)
      t.pi_nets
  in
  let copy_out (buf : rows) ~w0 ~words =
    Array.iter
      (fun c ->
        let dst = B.words values.(c.output) and row = c.output * chunk_words in
        for j = 0 to words - 1 do
          dst.(w0 + j) <- A1.unsafe_get buf (row + j)
        done)
      t.cells
  in
  ignore
    (sweep ?domains t p ~npat ~nwords:((npat + 63) / 64) ~init:(fun () -> scratch t)
       (fun buf ~lo ~len ->
         iter_chunks ~lo ~len (fun ~w0 ~words ->
             copy_in buf ~w0 ~words;
             eval p buf ~words;
             copy_out buf ~w0 ~words)));
  (* Clamp tails beyond npat (inputs are clean, but all-neg cubes and the
     constant -1 product can set tail bits). *)
  Array.iter (fun c -> B.clamp values.(c.output)) t.cells;
  values

type activity = { ones : int array; toggles : int array }

(* Per-worker accumulators of the streaming sweep. [carry] is each net's
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
let count st ~nets ~words =
  let buf = st.buf and masks = st.masks in
  for net = 0 to nets - 1 do
    let row = net * chunk_words in
    let ones = ref 0 and toggles = ref 0 in
    let prev = ref (Int64.of_int st.carry.(net)) in
    for j = 0 to words - 1 do
      let x = A1.unsafe_get buf (row + j) in
      let d = Int64.logxor x (Int64.logor (Int64.shift_left x 1) !prev) in
      ones := !ones + popcount (Int64.logand x (A1.unsafe_get masks j));
      toggles := !toggles + popcount (Int64.logand d (A1.unsafe_get masks (chunk_words + j)));
      prev := Int64.shift_right_logical x 63
    done;
    st.c_ones.(net) <- st.c_ones.(net) + !ones;
    st.c_toggles.(net) <- st.c_toggles.(net) + !toggles;
    st.carry.(net) <- Int64.to_int !prev
  done

let activity ?domains ?(seed = 42L) t ~patterns =
  let p = lower t in
  let nets = t.num_nets in
  let nwords = (patterns + 63) / 64 in
  (* Input i's word w is draw i * wpv + w of one generator, exactly as
     [Nets.Sim.random_stimulus] fills its vectors. *)
  let wpv = max 1 nwords in
  let tail = B.tail_mask patterns in
  let stimulate (buf : rows) ~w0 ~words =
    Array.iteri
      (fun i (_, net) ->
        let rng = Logic.Prng.create seed in
        Logic.Prng.jump rng ((i * wpv) + w0);
        let row = net * chunk_words in
        for j = 0 to words - 1 do
          A1.unsafe_set buf (row + j) (Logic.Prng.next64 rng)
        done)
      t.pi_nets;
    eval p buf ~words
  in
  let init () =
    {
      buf = scratch t;
      masks = A1.create Bigarray.int64 Bigarray.c_layout (2 * chunk_words);
      c_ones = Array.make nets 0;
      c_toggles = Array.make nets 0;
      carry = Array.make nets 0;
    }
  in
  let counters =
    sweep ?domains t p ~npat:patterns ~nwords ~init (fun st ~lo ~len ->
        (* A range that starts mid-sweep first simulates the word before
           it, so the toggle across the seam is counted exactly once. *)
        if lo > 0 then begin
          stimulate st.buf ~w0:(lo - 1) ~words:1;
          for net = 0 to nets - 1 do
            st.carry.(net) <-
              Int64.to_int
                (Int64.shift_right_logical (A1.unsafe_get st.buf (net * chunk_words)) 63)
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
            count st ~nets ~words))
  in
  let sum field =
    let total = Array.make nets 0 in
    List.iter
      (fun st -> Array.iteri (fun net v -> total.(net) <- total.(net) + v) (field st))
      counters;
    total
  in
  { ones = sum (fun st -> st.c_ones); toggles = sum (fun st -> st.c_toggles) }

let check ?domains t reference ~patterns ~seed =
  let module N = Nets.Netlist in
  let module Sim = Nets.Sim in
  let stimulus =
    Sim.random_stimulus ?domains ~seed ~inputs:(Array.length t.pi_nets)
      ~patterns ()
  in
  (* Align reference inputs by name. *)
  let first_by_name pairs =
    let tbl = Hashtbl.create (Array.length pairs) in
    Array.iter (fun (name, v) -> if not (Hashtbl.mem tbl name) then Hashtbl.replace tbl name v) pairs;
    tbl
  in
  let pi_index = first_by_name (Array.mapi (fun i (name, _) -> (name, i)) t.pi_nets) in
  let ref_stimulus =
    Array.map
      (fun id ->
        let name = N.input_name reference id in
        match Hashtbl.find_opt pi_index name with
        | Some i -> stimulus.(i)
        | None ->
            Runtime.Cnt_error.failf
              ~context:[ ("net", name) ]
              Runtime.Cnt_error.Techmap Runtime.Cnt_error.Missing_signal
              "Mapped.check: unknown PI %s" name)
      (N.inputs reference)
  in
  let ref_result = Sim.run ?domains reference ref_stimulus in
  let ref_outs = first_by_name (Sim.output_values reference ref_result) in
  let values = simulate ?domains t stimulus in
  Array.for_all
    (fun (name, net) -> B.equal values.(net) (Hashtbl.find ref_outs name))
    t.po_nets

let pp_stats ppf t =
  Format.fprintf ppf "mapped[%s]: %d gates, area %g, delay %.1f ps" t.lib.G.name
    (num_gates t) (area t) (delay t *. 1e12)
