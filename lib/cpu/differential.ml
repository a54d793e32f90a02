open Lz_mem

type t = {
  regs : int array;
  pc : int;
  sp_el0 : int;
  sp_el1 : int;
  pstate : int;
  cycles : int;
  insns : int;
  tlb_hits : int;
  tlb_misses : int;
  mem : string;
  extra : (string * string) list;
}

let observe ?(pages = []) ?(extra = []) (core : Core.t) =
  let buf = Buffer.create (4096 * List.length pages) in
  List.iter
    (fun pa -> Buffer.add_bytes buf (Phys.read_bytes core.Core.phys pa 4096))
    pages;
  { regs = Array.init 31 (Core.reg core);
    pc = core.Core.pc;
    sp_el0 = core.Core.sp_el0;
    sp_el1 = core.Core.sp_el1;
    pstate = Lz_arm.Pstate.to_spsr core.Core.pstate;
    cycles = core.Core.cycles;
    insns = core.Core.insns;
    tlb_hits = Tlb.hits core.Core.tlb;
    tlb_misses = Tlb.misses core.Core.tlb;
    mem = Digest.to_hex (Digest.string (Buffer.contents buf));
    extra }

(* Every field as (name, rendered value), in comparison order. *)
let fields o =
  let hex = Printf.sprintf "0x%x" and dec = string_of_int in
  List.init 31 (fun i -> (Printf.sprintf "x%d" i, hex o.regs.(i)))
  @ [ ("pc", hex o.pc); ("sp_el0", hex o.sp_el0); ("sp_el1", hex o.sp_el1);
      ("pstate", hex o.pstate); ("cycles", dec o.cycles);
      ("insns", dec o.insns); ("tlb_hits", dec o.tlb_hits);
      ("tlb_misses", dec o.tlb_misses); ("mem", o.mem) ]
  @ o.extra

(* Multi-line values (event streams) are reported by their first
   differing line, so a report stays one line long. *)
let rec describe name i = function
  | x :: xs, y :: ys when x = y -> describe name (i + 1) (xs, ys)
  | x :: _, y :: _ -> Printf.sprintf "%s line %d: %s vs %s" name i x y
  | x :: _, [] | [], x :: _ ->
      Printf.sprintf "%s line %d on one side only: %s" name i x
  | [], [] -> name

let diff a b =
  let lines = String.split_on_char '\n' in
  List.find_map
    (fun ((n, x), (_, y)) ->
      if x = y then None
      else if String.contains x '\n' || String.contains y '\n' then
        Some (describe n 0 (lines x, lines y))
      else Some (Printf.sprintf "%s: %s vs %s" n x y))
    (List.combine (fields a) (fields b))

let across_engines setup =
  let reference = setup Core.Slow in
  List.iter
    (function
      | Core.Slow -> ()
      | e -> (
          match diff reference (setup e) with
          | None -> ()
          | Some d ->
              failwith
                (Printf.sprintf "%s differs from slow: %s"
                   (Core.engine_name e) d)))
    Core.engines;
  reference
