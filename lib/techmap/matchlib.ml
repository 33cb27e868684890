module G = Cell.Genlib
module T = Logic.Truthtable

type candidate = { gate : G.gate; perm : int array; inv_mask : int }

type t = {
  lib : G.t;
  tables : (int64, candidate list) Hashtbl.t array; (* indexed by variable count *)
  inv : G.gate;
  mutable entries : int;
}

let max_pins = 6

let library t = t.lib
let inverter t = t.inv
let size t = t.entries

(* All permutations of [0..k-1]. *)
let rec permutations = function
  | [] -> [ [] ]
  | items ->
      List.concat_map
        (fun x ->
          let rest = List.filter (fun y -> y <> x) items in
          List.map (fun p -> x :: p) (permutations rest))
        items

let candidate_area c = c.gate.G.area
let candidate_delay c = c.gate.G.delay

let insert t k key cand =
  let table = t.tables.(k) in
  let existing = Option.value ~default:[] (Hashtbl.find_opt table key) in
  (* Dominance check: drop [cand] when an existing candidate is no larger
     and no slower. *)
  let dominated =
    List.exists
      (fun c ->
        candidate_area c <= candidate_area cand && candidate_delay c <= candidate_delay cand)
      existing
  in
  if not dominated then begin
    let merged =
      List.sort (fun a b -> compare (candidate_area a) (candidate_area b)) (cand :: existing)
    in
    (* Keep the three best by area plus the fastest. *)
    let by_area =
      let rec take n = function
        | [] -> []
        | _ when n = 0 -> []
        | x :: rest -> x :: take (n - 1) rest
      in
      take 3 merged
    in
    let fastest =
      List.fold_left
        (fun acc c -> if candidate_delay c < candidate_delay acc then c else acc)
        (List.hd merged) merged
    in
    let kept = if List.memq fastest by_area then by_area else fastest :: by_area in
    t.entries <- t.entries + (List.length kept - List.length existing);
    Hashtbl.replace table key kept
  end

(* Enumeration order is gate -> permutation -> polarity mask, so the first
   binding that produces a (gate, function) pair is the one inserted. Two
   shortcuts leave the tables unchanged: a permutation whose permuted word
   the gate already produced has its whole polarity orbit offered already,
   and offering a function twice from one gate is a no-op for [insert]
   (the first copy, of equal area and delay, either dominates the second
   or was itself dropped, and so would the second be). *)
let add_gate t (gate : G.gate) =
  let k = gate.G.cell.Cell.Cells.pins in
  let base = Cell.Cells.tt gate.G.cell in
  (* Support is invariant under renaming and negating inputs; cut
     functions are shrunk to their support before lookup. *)
  if k >= 1 && k <= max_pins && List.length (T.support base) = k then begin
    let permuted = Hashtbl.create 64 and offered = Hashtbl.create 256 in
    List.iter
      (fun perm_list ->
        let perm = Array.of_list perm_list in
        let pw = T.permute base perm in
        if not (Hashtbl.mem permuted (T.to_int64 pw)) then begin
          Hashtbl.add permuted (T.to_int64 pw) ();
          for inv_mask = 0 to (1 lsl k) - 1 do
            (* Pin j is driven by leaf perm.(j) xor (inv_mask bit j). *)
            let variant = ref pw in
            for j = 0 to k - 1 do
              if (inv_mask lsr j) land 1 = 1 then
                variant := T.flip_input !variant perm.(j)
            done;
            let key = T.to_int64 !variant in
            if not (Hashtbl.mem offered key) then begin
              Hashtbl.add offered key ();
              insert t k key { gate; perm; inv_mask }
            end
          done
        end)
      (permutations (List.init k Fun.id))
  end

let compute lib =
  let t =
    {
      lib;
      tables = Array.init (max_pins + 1) (fun _ -> Hashtbl.create 4096);
      inv = G.find_gate lib "INV";
      entries = 0;
    }
  in
  List.iter (add_gate t) lib.G.gates;
  t

let build ?cache:_ lib =
  Runtime.Telemetry.with_span "techmap.matchlib.build" (fun () -> compute lib)

let lookup t tt =
  let k = T.nvars tt in
  if k > max_pins then []
  else
    Option.value ~default:[] (Hashtbl.find_opt t.tables.(k) (T.to_int64 tt))
