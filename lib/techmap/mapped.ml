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
  subject : Aigs.Aig.t;
  net_lits : Aigs.Aig.lit array;
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

let chunk_words = Sweep.chunk_words

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
let eval p (buf : Sweep.rows) ~words =
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
let scratch t =
  let buf = Sweep.scratch ~rows:t.num_nets in
  Array.iter
    (fun (net, b) -> if b then A1.fill (A1.sub buf (net * chunk_words) chunk_words) (-1L))
    t.const_nets;
  buf

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
  let copy_in (buf : Sweep.rows) ~w0 ~words =
    Array.iteri
      (fun i (_, net) ->
        let src = B.words stimulus.(i) and row = net * chunk_words in
        for j = 0 to words - 1 do
          A1.unsafe_set buf (row + j) src.(w0 + j)
        done)
      t.pi_nets
  in
  let copy_out (buf : Sweep.rows) ~w0 ~words =
    Array.iter
      (fun c ->
        let dst = B.words values.(c.output) and row = c.output * chunk_words in
        for j = 0 to words - 1 do
          dst.(w0 + j) <- A1.unsafe_get buf (row + j)
        done)
      t.cells
  in
  ignore
    (Sweep.run ?domains ~npat ~nwords:((npat + 63) / 64)
       ~work:("mapped.sim.cube_words", Array.length p.cube_first - 1)
       ~init:(fun () -> scratch t)
       (fun buf ~lo ~len ->
         Sweep.iter_chunks ~lo ~len (fun ~w0 ~words ->
             copy_in buf ~w0 ~words;
             eval p buf ~words;
             copy_out buf ~w0 ~words)));
  Runtime.Telemetry.count "mapped.sim.cells" (Array.length t.cells);
  (* Clamp tails beyond npat (inputs are clean, but all-neg cubes and the
     constant -1 product can set tail bits). *)
  Array.iter (fun c -> B.clamp values.(c.output)) t.cells;
  values

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
