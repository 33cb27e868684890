module A = Aigs.Aig
module A1 = Bigarray.Array1

type t = { subject : A.t; patterns : int; ones : int array; toggles : int array }

(* The AND nodes lowered to flat arrays: node [first + i] ANDs the rows
   named by [fanin0.(i)] and [fanin1.(i)], each the fanin node's
   scratch-row offset shifted left once, low bit set when the fanin is
   complemented. *)
let lower aig =
  let first = A.num_inputs aig + 1 in
  let ands = A.num_nodes aig - first in
  let row lit =
    ((A.node_of_lit lit * Sweep.chunk_words) lsl 1) lor (lit land 1)
  in
  ( first,
    Array.init ands (fun i -> row (A.fanin0 aig (first + i))),
    Array.init ands (fun i -> row (A.fanin1 aig (first + i))) )

(* Evaluates every AND node on the first [words] columns of the scratch,
   in topological order; input rows must already hold the stimulus and
   the constant node's row stays zero. *)
let eval ~first fanin0 fanin1 (buf : Sweep.rows) ~words =
  for i = 0 to Array.length fanin0 - 1 do
    let out = (first + i) * Sweep.chunk_words in
    let f0 = Array.unsafe_get fanin0 i and f1 = Array.unsafe_get fanin1 i in
    let r0 = f0 lsr 1 and r1 = f1 lsr 1 in
    let m0 = Int64.of_int (-(f0 land 1)) and m1 = Int64.of_int (-(f1 land 1)) in
    for w = 0 to words - 1 do
      A1.unsafe_set buf (out + w)
        (Int64.logand
           (Int64.logxor (A1.unsafe_get buf (r0 + w)) m0)
           (Int64.logxor (A1.unsafe_get buf (r1 + w)) m1))
    done
  done

let sweep ?domains ?(seed = 42L) aig ~patterns =
  if patterns < 1 then
    invalid_arg (Printf.sprintf "Activity.sweep: patterns = %d, must be >= 1" patterns);
  let first, fanin0, fanin1 = lower aig in
  let ones, toggles =
    Sweep.counts ?domains ~seed ~patterns ~rows:(A.num_nodes aig)
      ~inputs:(Array.init (A.num_inputs aig) (fun i -> i + 1))
      ~eval:(eval ~first fanin0 fanin1)
      ~work:("aig.sim.node_words", Array.length fanin0)
      ()
  in
  { subject = aig; patterns; ones; toggles }

let subject t = t.subject
let patterns t = t.patterns

let ones t lit =
  let n = t.ones.(A.node_of_lit lit) in
  if A.is_complemented lit then t.patterns - n else n

let toggles t lit = t.toggles.(A.node_of_lit lit)
