module A = Aigs.Aig
module M = Techmap
module G = Cell.Genlib
module T = Logic.Truthtable

let matchlibs =
  lazy (List.map (fun lib -> (lib, M.Matchlib.build lib)) G.all_libraries)

let ml_gen () = snd (List.hd (Lazy.force matchlibs))
let ml_of name = snd (List.find (fun (l, _) -> l.G.name = name) (Lazy.force matchlibs))

(* ------------------------------------------------------------------ *)
(* Matchlib *)

let lookup_nand2 () =
  let ml = ml_gen () in
  let f = T.lognot (T.logand (T.var 2 0) (T.var 2 1)) in
  let cands = M.Matchlib.lookup ml f in
  Alcotest.(check bool) "has NAND2" true
    (List.exists
       (fun (c : M.Matchlib.candidate) -> c.gate.G.cell.Cell.Cells.name = "NAND2")
       cands)

let lookup_respects_permutation () =
  let ml = ml_gen () in
  (* !((x1 ^ x0) & x2): GNAND2B with permuted pins. *)
  let f = T.lognot (T.logand (T.logxor (T.var 3 1) (T.var 3 0)) (T.var 3 2)) in
  let cands = M.Matchlib.lookup ml f in
  Alcotest.(check bool) "nonempty" true (cands <> []);
  (* Every candidate must actually compute f when wired per (perm, mask). *)
  List.iter
    (fun (c : M.Matchlib.candidate) ->
      let g = Cell.Cells.tt c.gate.G.cell in
      let k = c.gate.G.cell.Cell.Cells.pins in
      let recomputed = ref g in
      for j = 0 to k - 1 do
        if (c.inv_mask lsr j) land 1 = 1 then recomputed := T.flip_input !recomputed j
      done;
      let recomputed = T.permute !recomputed c.perm in
      Alcotest.(check bool)
        (c.gate.G.cell.Cell.Cells.name ^ " binding correct")
        true
        (T.equal recomputed f))
    cands

let lookup_unknown_function () =
  let ml = ml_of "cmos" in
  (* 4-input parity has no single-gate realization in the CMOS library. *)
  let parity =
    List.fold_left (fun acc i -> T.logxor acc (T.var 4 i)) (T.const 4 false) [ 0; 1; 2; 3 ]
  in
  Alcotest.(check int) "no match" 0 (List.length (M.Matchlib.lookup ml parity))

let generalized_matches_xor_shapes () =
  let ml = ml_gen () in
  let gnand = T.lognot (T.logand (T.logxor (T.var 4 0) (T.var 4 2)) (T.logxor (T.var 4 1) (T.var 4 3))) in
  Alcotest.(check bool) "GNAND2 shape matched" true (M.Matchlib.lookup ml gnand <> [])

(* ------------------------------------------------------------------ *)
(* Mapper *)

(* The per-minterm builder the word-level one replaced, kept as the
   reference: every gate expanded over all k!·2^k pin bindings in the same
   order (gate -> permutation -> polarity mask), with table-free oracles
   for input negation and renaming. *)
module Reference_matchlib = struct
  let rebuild n f = T.of_bits n (Array.init (1 lsl n) f)

  let flip t i = rebuild (T.nvars t) (fun m -> T.eval t (m lxor (1 lsl i)))

  let permute t p =
    rebuild (T.nvars t) (fun m ->
        let m' = ref 0 in
        Array.iteri (fun i v -> if (m lsr v) land 1 = 1 then m' := !m' lor (1 lsl i)) p;
        T.eval t !m')

  let rec permutations = function
    | [] -> [ [] ]
    | items ->
        List.concat_map
          (fun x ->
            let rest = List.filter (fun y -> y <> x) items in
            List.map (fun p -> x :: p) (permutations rest))
          items

  let area (c : M.Matchlib.candidate) = c.gate.G.area
  let delay (c : M.Matchlib.candidate) = c.gate.G.delay

  let insert table key cand =
    let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
    if not (List.exists (fun c -> area c <= area cand && delay c <= delay cand) existing)
    then begin
      let merged = List.sort (fun a b -> compare (area a) (area b)) (cand :: existing) in
      let by_area = List.filteri (fun i _ -> i < 3) merged in
      let fastest =
        List.fold_left
          (fun acc c -> if delay c < delay acc then c else acc)
          (List.hd merged) merged
      in
      Hashtbl.replace table key
        (if List.memq fastest by_area then by_area else fastest :: by_area)
    end

  (* (pins, function word) -> candidates *)
  let build (lib : G.t) =
    let table = Hashtbl.create 4096 in
    List.iter
      (fun (gate : G.gate) ->
        let k = gate.G.cell.Cell.Cells.pins in
        if k >= 1 && k <= M.Matchlib.max_pins then begin
          let base = Cell.Cells.tt gate.G.cell in
          List.iter
            (fun perm_list ->
              let perm = Array.of_list perm_list in
              for inv_mask = 0 to (1 lsl k) - 1 do
                let flipped = ref base in
                for j = 0 to k - 1 do
                  if (inv_mask lsr j) land 1 = 1 then flipped := flip !flipped j
                done;
                let variant = permute !flipped perm in
                if List.length (T.support variant) = k then
                  insert table (k, T.to_int64 variant)
                    { M.Matchlib.gate; perm; inv_mask }
              done)
            (permutations (List.init k Fun.id))
        end)
      lib.G.gates;
    table
end

let ptl_library () =
  match Cell.Libfile.load_file "../data/libraries/ptl-ambipolar.genlibp" with
  | Ok lib -> lib
  | Error e -> Alcotest.failf "cannot load ptl-ambipolar: %a" Runtime.Cnt_error.pp e

let same_candidates (a : M.Matchlib.candidate) (b : M.Matchlib.candidate) =
  a.gate == b.gate && a.perm = b.perm && a.inv_mask = b.inv_mask

(* Every key the reference indexes resolves to the identical candidate
   list, and the totals agree, so the word-level table has no extra keys. *)
let matches_reference_builder lib expected_size () =
  let lib = lib () in
  let ml = M.Matchlib.build lib in
  let reference = Reference_matchlib.build lib in
  Alcotest.(check int) (lib.G.name ^ " size") expected_size (M.Matchlib.size ml);
  let total =
    Hashtbl.fold
      (fun (k, key) expected n ->
        let got = M.Matchlib.lookup ml (T.of_int64 k key) in
        if
          List.length got <> List.length expected
          || not (List.for_all2 same_candidates got expected)
        then Alcotest.failf "%s: candidates differ for %d-input %016Lx" lib.G.name k key;
        n + List.length expected)
      reference 0
  in
  Alcotest.(check int) (lib.G.name ^ " reference size") expected_size total

let reference_cases =
  [
    ("cntfet-generalized", (fun () -> G.generalized_cntfet), 6466);
    ("cntfet-conventional", (fun () -> G.conventional_cntfet), 202);
    ("cmos", (fun () -> G.cmos), 202);
    ("ptl-ambipolar", ptl_library, 102);
  ]

let random_aig rng ~inputs ~ands ~outs =
  let aig = A.create () in
  let lits = ref [] in
  for i = 1 to inputs do
    lits := A.add_input aig (Printf.sprintf "i%d" i) :: !lits
  done;
  let pick () =
    let all = Array.of_list !lits in
    let l = all.(Logic.Prng.int rng (Array.length all)) in
    if Logic.Prng.bool rng then A.lit_not l else l
  in
  for _ = 1 to ands do
    lits := A.mk_and aig (pick ()) (pick ()) :: !lits
  done;
  for o = 1 to outs do
    A.add_output aig (Printf.sprintf "o%d" o) (pick ())
  done;
  aig

let output_functions aig =
  let leaves = A.input_lits aig in
  Array.map
    (fun (name, lit) ->
      let base = A.cone_tt aig (A.node_of_lit lit) leaves in
      (name, if A.is_complemented lit then T.lognot base else base))
    (A.outputs aig)

let mapped_output_functions (m : M.Mapped.t) n =
  (* Exhaustive simulation over n inputs. *)
  let patterns = 1 lsl n in
  let stimulus =
    Array.init n (fun i ->
        let v = Logic.Bitvec.create patterns in
        for p = 0 to patterns - 1 do
          Logic.Bitvec.set v p ((p lsr i) land 1 = 1)
        done;
        v)
  in
  let values = M.Mapped.simulate m stimulus in
  Array.map
    (fun (name, net) ->
      let bits = Array.init patterns (fun p -> Logic.Bitvec.get values.(net) p) in
      (name, T.of_bits n bits))
    m.M.Mapped.po_nets

let mapping_preserves_function lib_name =
  QCheck.Test.make ~count:40
    ~name:(Printf.sprintf "mapping preserves function (%s)" lib_name)
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 1)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:4 in
      let ml = ml_of lib_name in
      let m = M.Mapper.map ml aig in
      let ref_fns = output_functions aig in
      let got_fns = mapped_output_functions m 6 in
      Array.for_all2 (fun (_, f) (_, g) -> T.equal f g) ref_fns got_fns)

let mapping_area_objective_not_larger () =
  (* Area flow is a heuristic, so compare the two objectives on average
     over a batch of random subject graphs, not per instance. *)
  let rng = Logic.Prng.create 4242L in
  let ml = ml_gen () in
  let area_d = ref 0.0 and area_a = ref 0.0 in
  let delay_d = ref 0.0 and delay_a = ref 0.0 in
  for _ = 1 to 10 do
    let aig = random_aig rng ~inputs:8 ~ands:80 ~outs:5 in
    let md = M.Mapper.map ~objective:M.Mapper.Delay ml aig in
    let ma = M.Mapper.map ~objective:M.Mapper.Area ml aig in
    area_d := !area_d +. M.Mapped.area md;
    area_a := !area_a +. M.Mapped.area ma;
    delay_d := !delay_d +. M.Mapped.delay md;
    delay_a := !delay_a +. M.Mapped.delay ma
  done;
  Alcotest.(check bool)
    (Printf.sprintf "avg area %.0f <= %.0f" !area_a !area_d)
    true (!area_a <= !area_d +. 1e-9);
  Alcotest.(check bool)
    (Printf.sprintf "avg delay %.3g <= %.3g" !delay_d !delay_a)
    true
    (!delay_d <= !delay_a +. 1e-18)

let xor_maps_to_single_gate () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check int) "one gate" 1 (M.Mapped.num_gates m);
  match M.Mapped.gate_histogram m with
  | [ ("XOR2", 1) ] -> ()
  | h ->
      Alcotest.failf "expected XOR2 x1, got %s"
        (String.concat "," (List.map (fun (n, c) -> Printf.sprintf "%s x%d" n c) h))

let xor_in_cmos_needs_several_gates () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_of "cmos") aig in
  Alcotest.(check bool)
    (Printf.sprintf "gates %d > 1" (M.Mapped.num_gates m))
    true
    (M.Mapped.num_gates m > 1)

let constant_output () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  A.add_output aig "zero" (A.mk_and aig a (A.lit_not a));
  A.add_output aig "one" A.const_true;
  let m = M.Mapper.map (ml_gen ()) aig in
  let values = M.Mapped.simulate m [| Logic.Bitvec.create 8 |] in
  let net name =
    let _, n = Array.to_list m.M.Mapped.po_nets |> List.find (fun (x, _) -> x = name) in
    n
  in
  Alcotest.(check int) "zero net all 0" 0 (Logic.Bitvec.popcount values.(net "zero"));
  Alcotest.(check int) "one net all 1" 8 (Logic.Bitvec.popcount values.(net "one"))

let inverter_inserted_for_negated_output () =
  let aig = A.create () in
  let a = A.add_input aig "a" in
  A.add_output aig "na" (A.lit_not a);
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check int) "one INV" 1 (M.Mapped.num_gates m);
  match M.Mapped.gate_histogram m with
  | [ ("INV", 1) ] -> ()
  | _ -> Alcotest.fail "expected a single INV"

(* ------------------------------------------------------------------ *)
(* Mapped analysis + Estimate *)

let delay_is_path_sum () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" and c = A.add_input aig "c" in
  A.add_output aig "y" (A.mk_and aig (A.mk_and aig a b) c);
  let ml = ml_gen () in
  let m = M.Mapper.map ml aig in
  let arr = M.Mapped.arrival_times m in
  Array.iter (fun (_, net) -> Alcotest.(check bool) "nonneg" true (arr.(net) >= 0.0)) m.M.Mapped.po_nets;
  Alcotest.(check bool) "delay positive" true (M.Mapped.delay m > 0.0)

let estimate_scales_with_activity () =
  (* The same netlist estimated with constant-zero inputs must show zero
     dynamic power; with random inputs, positive. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let r = M.Estimate.run ~patterns:4096 m in
  Alcotest.(check bool) "dynamic > 0" true (r.M.Estimate.dynamic > 0.0);
  Alcotest.(check bool) "static > 0" true (r.M.Estimate.static > 0.0);
  Alcotest.(check bool) "psc = 0.15 pd" true
    (abs_float (r.M.Estimate.short_circuit -. (0.15 *. r.M.Estimate.dynamic)) < 1e-18);
  Alcotest.(check bool) "total consistent" true
    (abs_float
       (r.M.Estimate.total
       -. (r.M.Estimate.dynamic +. r.M.Estimate.short_circuit +. r.M.Estimate.static
         +. r.M.Estimate.gate_leak))
    < 1e-15)

let estimate_deterministic () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let r1 = M.Estimate.run ~patterns:8192 ~seed:5L m in
  let r2 = M.Estimate.run ~patterns:8192 ~seed:5L m in
  Alcotest.(check (float 0.0)) "same dynamic" r1.M.Estimate.dynamic r2.M.Estimate.dynamic;
  Alcotest.(check (float 0.0)) "same static" r1.M.Estimate.static r2.M.Estimate.static

let suite_circuit_mapping name =
  Alcotest.test_case (name ^ " maps and verifies") `Slow (fun () ->
      let entry = Circuits.Suite.find name in
      let nl = entry.Circuits.Suite.generate () in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
      List.iter
        (fun (lib, ml) ->
          let m = M.Mapper.map ml aig in
          Alcotest.(check bool)
            (name ^ " equivalent under " ^ lib.G.name)
            true
            (M.Mapped.check m nl ~patterns:512 ~seed:77L))
        (Lazy.force matchlibs))

let generalized_maps_fewer_gates_on_ecc () =
  let entry = Circuits.Suite.find "C1355" in
  let nl = entry.Circuits.Suite.generate () in
  let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
  let m_gen = M.Mapper.map (ml_gen ()) aig in
  let m_cmos = M.Mapper.map (ml_of "cmos") aig in
  Alcotest.(check bool)
    (Printf.sprintf "gen %d < cmos %d gates" (M.Mapped.num_gates m_gen) (M.Mapped.num_gates m_cmos))
    true
    (float_of_int (M.Mapped.num_gates m_gen)
    < 0.6 *. float_of_int (M.Mapped.num_gates m_cmos))

(* ------------------------------------------------------------------ *)
(* Verify (exact BDD-based CEC) *)

let verify_agrees_with_simulation =
  QCheck.Test.make ~count:30 ~name:"BDD CEC agrees on random AIG mappings"
    QCheck.(make Gen.(int_bound 10_000))
    (fun seed ->
      let rng = Logic.Prng.create (Int64.of_int (seed + 77)) in
      let aig = random_aig rng ~inputs:6 ~ands:40 ~outs:3 in
      let nl = A.to_netlist aig in
      let m = M.Mapper.map (ml_gen ()) aig in
      M.Verify.equiv_netlist_mapped nl m)

let verify_detects_bugs () =
  (* Mutate a mapped netlist by swapping a cell's gate; CEC must catch it. *)
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let nl = A.to_netlist aig in
  let m = M.Mapper.map (ml_gen ()) aig in
  Alcotest.(check bool) "correct mapping passes" true (M.Verify.equiv_netlist_mapped nl m);
  let nor2 = Cell.Genlib.find_gate Cell.Genlib.generalized_cntfet "NOR2" in
  let broken =
    {
      m with
      M.Mapped.cells =
        Array.map
          (fun (c : M.Mapped.cell) ->
            if Array.length c.M.Mapped.inputs = 2 then { c with M.Mapped.gate = nor2 } else c)
          m.M.Mapped.cells;
    }
  in
  Alcotest.(check bool) "mutated mapping fails" false
    (M.Verify.equiv_netlist_mapped nl broken)

let verify_exact_on_suite () =
  List.iter
    (fun name ->
      let entry = Circuits.Suite.find name in
      let nl = entry.Circuits.Suite.generate () in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist nl) in
      Alcotest.(check bool) (name ^ " aig exact") true (M.Verify.equiv_netlist_aig nl aig);
      let m = M.Mapper.map (ml_gen ()) aig in
      Alcotest.(check bool) (name ^ " mapped exact") true (M.Verify.equiv_netlist_mapped nl m))
    [ "C1355"; "C1908" ]

let verify_too_large_guard () =
  (* The 16x16 multiplier is BDD-hostile: the node budget must trip rather
     than hang. *)
  let nl = Circuits.Multiplier.generate ~width:16 in
  let aig = A.of_netlist nl in
  Alcotest.check_raises "budget" M.Verify.Too_large (fun () ->
      ignore (M.Verify.equiv_netlist_aig ~max_nodes:50_000 nl aig))

(* ------------------------------------------------------------------ *)
(* Verilog writer *)

let contains hay needle =
  let n = String.length needle and h = String.length hay in
  let rec scan i = i + n <= h && (String.sub hay i n = needle || scan (i + 1)) in
  scan 0

let verilog_structural () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_xor aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let v = M.Verilog.write_string ~module_name:"xor_top" m in
  Alcotest.(check bool) "module header" true (contains v "module xor_top(");
  Alcotest.(check bool) "instantiates XOR2" true (contains v "XOR2 u0 (");
  Alcotest.(check bool) "output assign" true (contains v "assign y = ");
  let lib = M.Verilog.cell_library_string Cell.Genlib.generalized_cntfet in
  Alcotest.(check bool) "library has XOR2 module" true (contains lib "module XOR2(A, B, Y)");
  Alcotest.(check bool) "verilog operators" true (contains lib "assign Y = A ^ B")

let wire_load_increases_power () =
  let aig = A.create () in
  let a = A.add_input aig "a" and b = A.add_input aig "b" in
  A.add_output aig "y" (A.mk_and aig a b);
  let m = M.Mapper.map (ml_gen ()) aig in
  let base = M.Estimate.run ~patterns:4096 m in
  let loaded = M.Estimate.run ~patterns:4096 ~wire_cap_per_fanout:50e-18 m in
  Alcotest.(check bool) "wire load raises dynamic power" true
    (loaded.M.Estimate.dynamic > base.M.Estimate.dynamic);
  Alcotest.(check (float 1e-12)) "static unchanged" base.M.Estimate.static
    loaded.M.Estimate.static

(* ------------------------------------------------------------------ *)
(* Mapped netlists pinned cell for cell                                 *)

(* MD5 of a mapped netlist's structure: nets, PI/PO/constant bindings and
   every cell's gate, input nets and output net, in order. *)
let mapped_digest (m : M.Mapped.t) =
  let b = Buffer.create 4096 in
  Printf.bprintf b "%s %d\n" m.M.Mapped.lib.G.name m.M.Mapped.num_nets;
  Array.iter (fun (n, net) -> Printf.bprintf b "pi %s %d\n" n net) m.M.Mapped.pi_nets;
  Array.iter (fun (n, net) -> Printf.bprintf b "po %s %d\n" n net) m.M.Mapped.po_nets;
  Array.iter (fun (net, v) -> Printf.bprintf b "const %d %b\n" net v) m.M.Mapped.const_nets;
  Array.iter
    (fun (c : M.Mapped.cell) ->
      Printf.bprintf b "%s %s %d\n" c.M.Mapped.gate.G.cell.Cell.Cells.name
        (String.concat "," (Array.to_list (Array.map string_of_int c.M.Mapped.inputs)))
        c.M.Mapped.output)
    m.M.Mapped.cells;
  Digest.to_hex (Digest.string (Buffer.contents b))

(* Captured from the per-family mapper before cut functions were shared
   across families. *)
let pinned_mappings =
  [
    ("C2670", "cntfet-generalized", "6ebd0442f6d98413eb45d178f7f8623e");
    ("C2670", "cntfet-conventional", "99a34d9fd5895580c8d90b8b66dab0ca");
    ("C2670", "cmos", "f75dd7d56748fa31596980095650be25");
    ("C1908", "cntfet-generalized", "4bfb6c0adc5d138e8c1f296df4f204b2");
    ("C1908", "cntfet-conventional", "8ef7cf939af13f0dde4400847e8b9e16");
    ("C1908", "cmos", "0c01d04e159f3d8334a07df150b88aac");
    ("C3540", "cntfet-generalized", "1571fd62dc0939236010f1f95f06dba0");
    ("C3540", "cntfet-conventional", "26f3eab01ddcd4b8e142724f736a894f");
    ("C3540", "cmos", "ed54abab987fef9f360bc1f9652d5925");
    ("dalu", "cntfet-generalized", "0ef7d1bf49cbb457e9417e48c45fa045");
    ("dalu", "cntfet-conventional", "d50e1f096f52947fc6d86599839272ab");
    ("dalu", "cmos", "f3f2f6978aaf759d33737c08db39407b");
    ("C7552", "cntfet-generalized", "e16d49fec7b8c9b5096a5611b23299cf");
    ("C7552", "cntfet-conventional", "0b26f8743ba1e2c50e910361f24d116f");
    ("C7552", "cmos", "daca87ee8196968c0db159aaa13a3a79");
    ("C6288", "cntfet-generalized", "d7b76e6b2b8a477ce1e50b86bbcc793b");
    ("C6288", "cntfet-conventional", "bd589e5d7ecd5ddd1b9e16eea4a968f3");
    ("C6288", "cmos", "e16c66f8cd4e9dd4191e20752334d093");
    ("C5315", "cntfet-generalized", "2a33bd85b2108c0818e9847817cd2c75");
    ("C5315", "cntfet-conventional", "06ab1c79937e4d36cd42eb373340414d");
    ("C5315", "cmos", "c437a04f77434969009619c3c1614f0e");
    ("des", "cntfet-generalized", "6394363206203e8991d68ea4b4fd7c16");
    ("des", "cntfet-conventional", "95497db69e7489d0b146f967eae9015e");
    ("des", "cmos", "847191950987cbe6572b69c2e41f04b9");
    ("i10", "cntfet-generalized", "ad61a175e6600a090666d4ad5f6722ad");
    ("i10", "cntfet-conventional", "7d70bb6f1b84297ce71aec699ba9a465");
    ("i10", "cmos", "a5ad8a1e70da43d10fadf20a778b4491");
    ("t481", "cntfet-generalized", "5f1f3cf0429953c586fab447c396f10d");
    ("t481", "cntfet-conventional", "e47c3e6d932cf9b7631b9a0fbb59703f");
    ("t481", "cmos", "f18242f58fa247742cbef80f8323e2fe");
    ("i8", "cntfet-generalized", "b0b76f3de977a08ffddb7ee029634a0d");
    ("i8", "cntfet-conventional", "16764b187ce25ab7b58e3d1cf48e4207");
    ("i8", "cmos", "922b5de4de219953e443862caa509b12");
    ("C1355", "cntfet-generalized", "f76f1fb19e182bc95da1d0985d635c8a");
    ("C1355", "cntfet-conventional", "e9f756b59e26127cd86ca998c4f3c964");
    ("C1355", "cmos", "c8f0d69e1da64811853d641d8d16d975");
  ]

(* One subject per circuit, mapped with every built-in family, gives the
   pinned netlists, and so does the one-call [map] (checked with the first
   family: it builds the subject again on every call). *)
let suite_mappings_pinned () =
  List.iter
    (fun (entry : Circuits.Suite.entry) ->
      let name = entry.Circuits.Suite.name in
      let aig = Aigs.Opt.resyn2rs (A.of_netlist (entry.Circuits.Suite.generate ())) in
      let subject = M.Mapper.subject aig in
      List.iter
        (fun (lib, ml) ->
          let what = Printf.sprintf "%s/%s" name lib.G.name in
          let expected =
            List.find_map
              (fun (c, l, d) -> if c = name && l = lib.G.name then Some d else None)
              pinned_mappings
          in
          Alcotest.(check (option string)) (what ^ " via subject") expected
            (Some (mapped_digest (M.Mapper.map_subject ml subject)));
          if ml == ml_gen () then
            Alcotest.(check (option string)) (what ^ " via map") expected
              (Some (mapped_digest (M.Mapper.map ml aig))))
        (Lazy.force matchlibs))
    Circuits.Suite.all

let () =
  let qt = List.map QCheck_alcotest.to_alcotest in
  Alcotest.run "techmap"
    [
      ( "matchlib",
        [
          Alcotest.test_case "nand2 lookup" `Quick lookup_nand2;
          Alcotest.test_case "permutation binding" `Quick lookup_respects_permutation;
          Alcotest.test_case "unknown function" `Quick lookup_unknown_function;
          Alcotest.test_case "generalized xor shapes" `Quick generalized_matches_xor_shapes;
        ]
        @ List.map
            (fun (name, lib, n) ->
              Alcotest.test_case (name ^ " matches reference builder") `Quick
                (matches_reference_builder lib n))
            reference_cases );
      ( "mapper",
        Alcotest.
          [
            test_case "xor single gate" `Quick xor_maps_to_single_gate;
            test_case "xor several gates in cmos" `Quick xor_in_cmos_needs_several_gates;
            test_case "constant outputs" `Quick constant_output;
            test_case "negated PI output" `Quick inverter_inserted_for_negated_output;
            test_case "area objective" `Slow mapping_area_objective_not_larger;
            test_case "suite x 3 families pinned cell for cell" `Slow suite_mappings_pinned;
          ]
        @ qt
            [
              mapping_preserves_function "cntfet-generalized";
              mapping_preserves_function "cmos";
            ] );
      ( "verify",
        Alcotest.
          [
            test_case "detects bugs" `Quick verify_detects_bugs;
            test_case "exact on ECC rows" `Slow verify_exact_on_suite;
            test_case "too-large guard" `Slow verify_too_large_guard;
          ]
        @ qt [ verify_agrees_with_simulation ] );
      ( "verilog+wireload",
        [
          Alcotest.test_case "structural verilog" `Quick verilog_structural;
          Alcotest.test_case "wire load" `Quick wire_load_increases_power;
        ] );
      ( "mapped+estimate",
        [
          Alcotest.test_case "arrival/delay" `Quick delay_is_path_sum;
          Alcotest.test_case "estimate components" `Quick estimate_scales_with_activity;
          Alcotest.test_case "estimate deterministic" `Quick estimate_deterministic;
          suite_circuit_mapping "C1355";
          suite_circuit_mapping "C1908";
          Alcotest.test_case "gen wins on ECC" `Slow generalized_maps_fewer_gates_on_ecc;
        ] );
    ]
