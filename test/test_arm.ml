(* Tests for the ARM64 architecture model: bit helpers, PSTATE,
   system-register encodings, and bit-exact instruction encode/decode. *)

open Lz_arm

let check_int = Alcotest.(check int)
let check_bool = Alcotest.(check bool)

(* ------------------------------------------------------------------ *)
(* Bits *)

let test_extract_insert () =
  check_int "extract mid" 0xAB (Bits.extract 0xABCD ~hi:15 ~lo:8);
  check_int "extract low" 0xD (Bits.extract 0xABCD ~hi:3 ~lo:0);
  check_int "insert" 0xAFCD (Bits.insert 0xABCD ~hi:11 ~lo:8 0xF);
  check_int "insert keeps others" 0xABCD (Bits.insert 0xABCD ~hi:11 ~lo:8 0xB)

let test_bit_ops () =
  check_bool "bit set" true (Bits.bit 0b100 2);
  check_bool "bit clear" false (Bits.bit 0b100 1);
  check_int "set_bit on" 0b101 (Bits.set_bit 0b100 0 true);
  check_int "set_bit off" 0b000 (Bits.set_bit 0b100 2 false)

let test_sign_extend () =
  check_int "positive" 5 (Bits.sign_extend 5 ~width:8);
  check_int "negative" (-1) (Bits.sign_extend 0xFF ~width:8);
  check_int "boundary" (-128) (Bits.sign_extend 0x80 ~width:8)

let test_align () =
  check_int "down" 0x1000 (Bits.align_down 0x1FFF 0x1000);
  check_bool "aligned" true (Bits.is_aligned 0x2000 0x1000);
  check_bool "unaligned" false (Bits.is_aligned 0x2001 0x1000)

(* ------------------------------------------------------------------ *)
(* Pstate *)

let test_spsr_roundtrip () =
  let p = Pstate.make Pstate.EL1 in
  p.pan <- true;
  p.n <- true;
  p.z <- false;
  p.c <- true;
  p.daif <- 0xF;
  let w = Pstate.to_spsr p in
  let q = Pstate.make Pstate.EL0 in
  Pstate.of_spsr q w;
  check_bool "pan" true q.pan;
  check_bool "n" true q.n;
  check_bool "c" true q.c;
  check_int "daif" 0xF q.daif;
  Alcotest.(check string) "el" "EL1" (Format.asprintf "%a" Pstate.pp_el q.el)

let test_nzcv () =
  let p = Pstate.make Pstate.EL0 in
  Pstate.set_nzcv p 0b1010;
  check_bool "n" true p.n;
  check_bool "z" false p.z;
  check_bool "c" true p.c;
  check_bool "v" false p.v;
  check_int "roundtrip" 0b1010 (Pstate.nzcv p)

(* ------------------------------------------------------------------ *)
(* Sysreg *)

let test_sysreg_encoding_roundtrip () =
  List.iter
    (fun r ->
      match Sysreg.of_encoding (Sysreg.encoding r) with
      | Some r' ->
          Alcotest.(check string)
            (Sysreg.name r) (Sysreg.name r) (Sysreg.name r')
      | None -> Alcotest.failf "no reverse lookup for %s" (Sysreg.name r))
    Sysreg.all

let test_sysreg_encodings_unique () =
  let encs = List.map Sysreg.encoding Sysreg.all in
  let uniq = List.sort_uniq compare encs in
  check_int "all encodings distinct" (List.length encs) (List.length uniq)

(* [index] is a hand-written [match] beside the register table: it
   must give every register its position in the table, which is what
   [all] lists, and the register file must keep each slot apart. *)
let test_sysreg_index () =
  List.iteri
    (fun i r -> check_int (Sysreg.name r) i (Sysreg.index r))
    Sysreg.all;
  check_int "every constructor listed" 83 (List.length Sysreg.all);
  let f = Sysreg.create_file () in
  List.iteri (fun i r -> Sysreg.write f r (i + 1)) Sysreg.all;
  List.iteri
    (fun i r -> check_int ("file slot " ^ Sysreg.name r) (i + 1)
        (Sysreg.read f r))
    Sysreg.all

let test_sysreg_min_el () =
  let open Sysreg in
  Alcotest.(check string) "ttbr0 el1" "EL1"
    (Format.asprintf "%a" Pstate.pp_el (min_el TTBR0_EL1));
  Alcotest.(check string) "hcr el2" "EL2"
    (Format.asprintf "%a" Pstate.pp_el (min_el HCR_EL2));
  Alcotest.(check string) "tpidr el0" "EL0"
    (Format.asprintf "%a" Pstate.pp_el (min_el TPIDR_EL0))

let test_sysreg_file () =
  let f = Sysreg.create_file () in
  check_int "default zero" 0 (Sysreg.read f Sysreg.TTBR0_EL1);
  Sysreg.write f Sysreg.TTBR0_EL1 0xdead000;
  check_int "read back" 0xdead000 (Sysreg.read f Sysreg.TTBR0_EL1);
  let g = Sysreg.copy_file f in
  Sysreg.write f Sysreg.TTBR0_EL1 0;
  check_int "copy independent" 0xdead000 (Sysreg.read g Sysreg.TTBR0_EL1);
  let h = Sysreg.create_file () in
  Sysreg.transfer ~src:g ~dst:h [ Sysreg.TTBR0_EL1 ];
  check_int "transfer" 0xdead000 (Sysreg.read h Sysreg.TTBR0_EL1)

(* ------------------------------------------------------------------ *)
(* Encoding: known golden words *)

let golden =
  [ (Insn.Nop, 0xD503201F);
    (Insn.Isb, 0xD5033FDF);
    (Insn.Dsb, 0xD5033F9F);
    (Insn.Wfi, 0xD503207F);
    (Insn.Eret, 0xD69F03E0);
    (Insn.Svc 0, 0xD4000001);
    (Insn.Hvc 0, 0xD4000002);
    (Insn.Brk 0, 0xD4200000);
    (Insn.Ret 30, 0xD65F03C0);
    (Insn.Msr_pstate (Insn.PAN, 1), 0xD500419F);
    (Insn.Msr_pstate (Insn.PAN, 0), 0xD500409F);
    (* MSR TTBR0_EL1, x0 : op0=3 op1=0 CRn=2 CRm=0 op2=0 *)
    (Insn.Msr (Sysreg.TTBR0_EL1, 0), 0xD5182000);
    (Insn.Mrs (0, Sysreg.TTBR0_EL1), 0xD5382000);
    (* LDR/STR Wt, unsigned offset *)
    (Insn.Ldr32 (1, 2, 8), 0xB9400841);
    (Insn.Str32 (1, 2, 8), 0xB9000841) ]

let test_golden_encodings () =
  List.iter
    (fun (insn, word) ->
      check_int (Format.asprintf "%a" Insn.pp insn) word
        (Encoding.encode insn))
    golden

let test_golden_decodings () =
  List.iter
    (fun (insn, word) ->
      Alcotest.(check string)
        (Printf.sprintf "decode 0x%08x" word)
        (Format.asprintf "%a" Insn.pp insn)
        (Format.asprintf "%a" Insn.pp (Encoding.decode word)))
    golden

let test_system_space_fields () =
  (* MSR TTBR0_EL1, x5 *)
  let w = Encoding.encode (Insn.Msr (Sysreg.TTBR0_EL1, 5)) in
  check_bool "system space" true (Encoding.is_system_space w);
  check_int "op0" 3 (Encoding.sys_op0 w);
  check_int "op1" 0 (Encoding.sys_op1 w);
  check_int "crn" 2 (Encoding.sys_crn w);
  check_int "op2" 0 (Encoding.sys_op2 w);
  check_int "rt" 5 (Encoding.sys_rt w);
  check_int "l (write)" 0 (Encoding.sys_l w);
  let r = Encoding.encode (Insn.Mrs (5, Sysreg.TTBR0_EL1)) in
  check_int "l (read)" 1 (Encoding.sys_l r);
  (* A plain ALU instruction is not in the system space. *)
  check_bool "add not system" false
    (Encoding.is_system_space (Encoding.encode (Insn.Add (0, 1, Insn.Imm 4))))

let test_decode_total () =
  (* decode never raises, whatever the word. *)
  let prng = Random.State.make [| 42 |] in
  for _ = 1 to 10_000 do
    let w =
      Random.State.int prng 0x10000 lor (Random.State.int prng 0x10000 lsl 16)
    in
    ignore (Encoding.decode w)
  done

(* ------------------------------------------------------------------ *)
(* QCheck: encode/decode roundtrip over random instructions *)

let gen_reg = QCheck2.Gen.int_range 0 30

let gen_operand =
  QCheck2.Gen.(
    oneof
      [ map (fun i -> Insn.Imm i) (int_range 0 4095);
        map (fun r -> Insn.Reg r) gen_reg ])

let gen_branch_off = QCheck2.Gen.(map (fun i -> i * 4) (int_range (-1000) 1000))

let gen_insn =
  let open QCheck2.Gen in
  let g3 f = map3 f gen_reg gen_reg gen_reg in
  oneof
    [ map3 (fun rd imm sh -> Insn.Movz (rd, imm, sh * 16))
        gen_reg (int_range 0 0xFFFF) (int_range 0 3);
      map3 (fun rd imm sh -> Insn.Movk (rd, imm, sh * 16))
        gen_reg (int_range 0 0xFFFF) (int_range 0 3);
      map3 (fun a b op -> Insn.Add (a, b, op)) gen_reg gen_reg gen_operand;
      map3 (fun a b op -> Insn.Sub (a, b, op)) gen_reg gen_reg gen_operand;
      map3 (fun a b op -> Insn.Subs (a, b, op)) gen_reg gen_reg gen_operand;
      g3 (fun a b c -> Insn.And_reg (a, b, c));
      g3 (fun a b c -> Insn.Eor_reg (a, b, c));
      map3 (fun rt rn off -> Insn.Ldr (rt, rn, off * 8))
        gen_reg gen_reg (int_range 0 4095);
      map3 (fun rt rn off -> Insn.Str (rt, rn, off * 8))
        gen_reg gen_reg (int_range 0 4095);
      map3 (fun rt rn off -> Insn.Ldrb (rt, rn, off))
        gen_reg gen_reg (int_range 0 4095);
      map3 (fun rt rn off -> Insn.Ldr32 (rt, rn, off * 4))
        gen_reg gen_reg (int_range 0 4095);
      map3 (fun rt rn off -> Insn.Str32 (rt, rn, off * 4))
        gen_reg gen_reg (int_range 0 4095);
      map3 (fun rt rn off -> Insn.Ldtr (rt, rn, off))
        gen_reg gen_reg (int_range (-256) 255);
      map3 (fun rt rn off -> Insn.Sttr (rt, rn, off))
        gen_reg gen_reg (int_range (-256) 255);
      g3 (fun a b c -> Insn.Ldr_reg (a, b, c));
      g3 (fun a b c -> Insn.Str_reg (a, b, c));
      map (fun off -> Insn.B off) gen_branch_off;
      map (fun off -> Insn.Bl off) gen_branch_off;
      map2 (fun c off -> Insn.Bcond (Insn.cond_of_number c, off))
        (int_range 0 13) gen_branch_off;
      map2 (fun r off -> Insn.Cbz (r, off)) gen_reg gen_branch_off;
      map2 (fun r off -> Insn.Cbnz (r, off)) gen_reg gen_branch_off;
      map (fun r -> Insn.Br r) gen_reg;
      map (fun r -> Insn.Blr r) gen_reg;
      map (fun r -> Insn.Ret r) gen_reg;
      map (fun i -> Insn.Svc i) (int_range 0 0xFFFF);
      map (fun i -> Insn.Hvc i) (int_range 0 0xFFFF);
      map (fun i -> Insn.Brk i) (int_range 0 0xFFFF);
      return Insn.Eret;
      return Insn.Nop;
      return Insn.Isb;
      return Insn.Wfi;
      map (fun b -> Insn.Msr_pstate (Insn.PAN, if b then 1 else 0)) bool;
      map2 (fun rt i ->
          let r = List.nth Sysreg.all (i mod List.length Sysreg.all) in
          Insn.Msr (r, rt))
        gen_reg (int_range 0 1000);
      map2 (fun rt i ->
          let r = List.nth Sysreg.all (i mod List.length Sysreg.all) in
          Insn.Mrs (rt, r))
        gen_reg (int_range 0 1000) ]

(* decode (encode i) may print differently from i only for encoding
   aliases (none among generated forms), so compare via re-encoding. *)
let prop_roundtrip =
  QCheck2.Test.make ~name:"encode/decode/encode fixpoint" ~count:2000 gen_insn
    (fun insn ->
      let w = Encoding.encode insn in
      Encoding.encode (Encoding.decode w) = w)

let prop_decode_width =
  QCheck2.Test.make ~name:"encodings fit in 32 bits" ~count:2000 gen_insn
    (fun insn ->
      let w = Encoding.encode insn in
      w >= 0 && w <= 0xFFFFFFFF)

let () =
  Alcotest.run "lz_arm"
    [ ( "bits",
        [ Alcotest.test_case "extract/insert" `Quick test_extract_insert;
          Alcotest.test_case "bit ops" `Quick test_bit_ops;
          Alcotest.test_case "sign extend" `Quick test_sign_extend;
          Alcotest.test_case "align" `Quick test_align ] );
      ( "pstate",
        [ Alcotest.test_case "spsr roundtrip" `Quick test_spsr_roundtrip;
          Alcotest.test_case "nzcv" `Quick test_nzcv ] );
      ( "sysreg",
        [ Alcotest.test_case "encoding roundtrip" `Quick
            test_sysreg_encoding_roundtrip;
          Alcotest.test_case "encodings unique" `Quick
            test_sysreg_encodings_unique;
          Alcotest.test_case "min el" `Quick test_sysreg_min_el;
          Alcotest.test_case "register file" `Quick test_sysreg_file;
          Alcotest.test_case "index is the table position" `Quick
            test_sysreg_index ] );
      ( "encoding",
        [ Alcotest.test_case "golden encodings" `Quick test_golden_encodings;
          Alcotest.test_case "golden decodings" `Quick test_golden_decodings;
          Alcotest.test_case "system fields" `Quick test_system_space_fields;
          Alcotest.test_case "decode is total" `Quick test_decode_total;
          QCheck_alcotest.to_alcotest prop_roundtrip;
          QCheck_alcotest.to_alcotest prop_decode_width ] ) ]
