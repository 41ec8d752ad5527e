//! Golden residuals: pins the compiler's output and its front-end
//! analyses across refactors.
//!
//! For the seven Fig. 8 programs (at their benchmark arguments) and for
//! a fixed-seed batch of generated programs, the test hashes
//!
//! * the residual S₀ text (`Pipeline::compile(..).to_source()`),
//! * the emitted C text (`Pipeline::emit_c`), and
//! * the §4.2 flow facts and §4.5 generalization sets: every variable's
//!   abstract value, every `cons` site's components, the returned and
//!   context lambdas, and `GenAnalysis`'s critical lambdas, critical
//!   cons sites and stack candidates,
//!
//! with FNV-1a (fixed, seedless, identical on every platform) and
//! compares them against values recorded from a known-good build.  A
//! change that alters any residual byte or any analysis fact fails here;
//! a change that means to alter them must re-record the tables (the
//! failure message prints fresh ones) and say why.

use pe_core::CompileOptions;
use pe_frontend::dast::{SimpleExpr, TailExpr};
use pe_frontend::{DProgram, FlowAnalysis, GenAnalysis, Prim};
use pe_interp::Datum;
use pe_siege::gen::gen_case;
use pe_siege::rng::Rng;
use realistic_pe::{suite, Pipeline};
use std::fmt::Write as _;

/// Generated programs pinned, and the seed of their stream.
const GEN_CASES: usize = 200;
const GEN_SEED: u64 = 0x601D_E2E5;

/// 64-bit FNV-1a.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

fn cons_sites(p: &DProgram) -> Vec<u32> {
    fn simple(se: &SimpleExpr, out: &mut Vec<u32>) {
        if let SimpleExpr::Prim(l, op, args) = se {
            if *op == Prim::Cons {
                out.push(l.0);
            }
            args.iter().for_each(|a| simple(a, out));
        }
    }
    fn tail(te: &TailExpr, out: &mut Vec<u32>) {
        match te {
            TailExpr::Simple(se) => simple(se, out),
            TailExpr::If(_, c, t, e) => {
                simple(c, out);
                tail(t, out);
                tail(e, out);
            }
            TailExpr::CallProc(_, _, args) => args.iter().for_each(|a| simple(a, out)),
            TailExpr::PushApp(_, ctx, body) => {
                simple(ctx, out);
                tail(body, out);
            }
        }
    }
    let mut out = Vec::new();
    p.defs.iter().for_each(|d| tail(&d.body, &mut out));
    p.lambdas.iter().for_each(|l| tail(&l.body, &mut out));
    out
}

/// Every fact the flow and generalization analyses compute, rendered.
fn analysis_text(p: &DProgram) -> String {
    let flow = FlowAnalysis::analyze(p);
    let gen = GenAnalysis::analyze(p, &flow);
    let mut s = String::new();
    for v in 0..p.var_names.len() {
        let v = pe_frontend::dast::VarId(v as u32);
        let _ = writeln!(s, "{v} {:?} {:?}", flow.var(v), flow.var_lambdas(v));
    }
    for site in cons_sites(p) {
        let _ = writeln!(s, "cons {site} {:?}", flow.cons_components(site));
    }
    let _ = writeln!(s, "ret {:?}", flow.returned_lambdas());
    let _ = writeln!(s, "ctx {:?}", flow.context_lambdas());
    let _ = writeln!(s, "critical lams {:?}", gen.critical_lams);
    let _ = writeln!(s, "critical cons {:?}", gen.critical_cons);
    let _ = writeln!(s, "stack {:?}", gen.stack_candidates);
    s
}

/// `(residual S₀, emitted C, analysis facts)` hashes of one program; a
/// compile error is pinned by its message in both output slots.
fn hashes(source: &str, entry: &str, args: &[Datum]) -> (u64, u64, u64) {
    let pipe = match Pipeline::new(source) {
        Ok(p) => p,
        Err(e) => {
            let h = fnv1a(e.to_string().as_bytes());
            return (h, h, h);
        }
    };
    let facts = fnv1a(analysis_text(&pipe.dprog).as_bytes());
    let opts = CompileOptions::default();
    let s0 = match pipe.compile(entry, &opts) {
        Ok(s0) => fnv1a(s0.to_source().as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    let c = match pipe.emit_c(entry, args, &opts) {
        Ok(c) => fnv1a(c.source.as_bytes()),
        Err(e) => fnv1a(e.to_string().as_bytes()),
    };
    (s0, c, facts)
}

/// Fails listing the differing programs (with the source of the first)
/// and the freshly computed table, ready to paste in if the change was
/// intended.
fn report(diffs: &[String], table: &str) {
    assert!(
        diffs.is_empty(),
        "golden residuals changed:\n{}\nfresh table:\n{table}",
        diffs.join("\n")
    );
}

#[test]
fn fig8_residuals_are_pinned() {
    let (mut diffs, mut table) = (Vec::new(), String::new());
    for (i, b) in suite::SUITE.iter().enumerate() {
        let got = hashes(b.source, b.entry, &b.bench_inputs());
        let _ = writeln!(table, "    (\"{}\", {:#018x}, {:#018x}, {:#018x}),", b.name, got.0, got.1, got.2);
        let want = FIG8.get(i).copied().unwrap_or(("", 0, 0, 0));
        if (want.0, (want.1, want.2, want.3)) != (b.name, got) {
            diffs.push(format!("{}: want {want:x?}, got {got:x?}", b.name));
        }
    }
    assert_eq!(suite::SUITE.len(), FIG8.len());
    report(&diffs, &table);
}

#[test]
fn generated_residuals_are_pinned() {
    let mut master = Rng::new(GEN_SEED);
    let (mut diffs, mut table) = (Vec::new(), String::new());
    for i in 0..GEN_CASES {
        let case = gen_case(&mut master.fork());
        let got = hashes(&case.source, &case.entry, &case.args);
        let _ = writeln!(table, "    ({:#018x}, {:#018x}, {:#018x}),", got.0, got.1, got.2);
        let want = GENERATED.get(i).copied().unwrap_or_default();
        if want != got {
            let source = if diffs.is_empty() { case.source.as_str() } else { "" };
            diffs.push(format!("case {i}: want {want:x?}, got {got:x?}\n{source}"));
        }
    }
    assert_eq!(GENERATED.len(), GEN_CASES);
    report(&diffs, &table);
}

/// `(name, S₀ hash, C hash, analysis hash)` per Fig. 8 program.
const FIG8: &[(&str, u64, u64, u64)] = &[
    ("deriv", 0x82f07dd5711f5e9e, 0x643cd323c624e49f, 0x0a77054d44786b2b),
    ("tak", 0x5e8e4cdcf840e05c, 0x3c2c6b7494ebb8ba, 0x48097f70be943658),
    ("cpstak", 0x489e883633c32b7a, 0x30a58a05407f184b, 0xa1dcc2cfb86d9bca),
    ("takl", 0xb0c3cac10233379f, 0xb997b88f95955820, 0xd4b05ac7bbe6bffc),
    ("fibclos", 0x39b4effd10438931, 0x88d51ae5cd2108fc, 0xb98080aab87b956e),
    ("cps-append", 0x0891035b14351f3a, 0xdb6f30fea64dd1e1, 0x2b3352d70863c1f2),
    ("queens", 0xacb4421457dbc2cb, 0xb94bff122f9b053e, 0xdca8654ea778bd45),
];

/// `(S₀ hash, C hash, analysis hash)` per generated program.
const GENERATED: &[(u64, u64, u64)] = &[
    (0x57d3e4cfb0e76147, 0xeafa6a133ddcfa6b, 0xd32c150ad55750c6),
    (0x3ab51d1981faa633, 0xefc433fce30667e0, 0xad0ec36715d3d7f7),
    (0x94ef4c14ea9eb290, 0x32fdc5370c8fddea, 0xb9267521fd015ee1),
    (0x44314c198795a8cc, 0xa61f8a8a6bb2b282, 0xc44ca47b762cc96f),
    (0x8c9fcf9473364f39, 0x312c20c6267e73e3, 0xabdd998fcfaab53b),
    (0x8d262d14e6755fa7, 0x62d27cf2e09b0e4c, 0x438a4e537551b9ae),
    (0x66a0e8199b078c18, 0xc96a77b6cc446ccf, 0x4ed194b69ddaaa03),
    (0xcba6fc42c91a6889, 0x66a63122e578edc9, 0xafe5e392e7430be3),
    (0x6e48b769d8424d58, 0x25e632410cc178f0, 0x91b8eeb8faa1c80f),
    (0x8d262d14e6755fa7, 0x669cb403c4930c4a, 0x41494fd1f42bd081),
    (0x10fc7889ba49f3d2, 0x36eace052c20d24b, 0x07f7ee44c6237753),
    (0xa4b7b2b0480bfff4, 0x5bdd2428ae0243d7, 0x42e202e94e733c05),
    (0x21f47b9b7da68333, 0x2e8658f8dce47ca0, 0x95862ff6d4f0f390),
    (0x77a4f4c9fa257701, 0xb70e9e690678a599, 0xf07b80d08e3390a9),
    (0x66a0e8199b078c18, 0xb4c287f07e3af095, 0xd0fcc99508978ec9),
    (0xced83f765ed10567, 0x7833e77ab9859afb, 0x0d9e941e6e83a67a),
    (0xa83144897eb154be, 0xdb1f8f55b4cc372b, 0x45d22e85eebbcafd),
    (0x83b1775f1976d56c, 0xc7883bba294037c0, 0xd9665fc474539094),
    (0x58abe99b6917ad1e, 0x60bf73d26f258fc0, 0x3d282f8730d3227a),
    (0x864216975a9ca387, 0xcffc52f7768c8735, 0xbc57531834bfbea6),
    (0x44a3a16098580166, 0xe7b0c0ce45cd5971, 0x6c7af2b657570071),
    (0x8d262d14e6755fa7, 0x9bc2531243d007a9, 0xc0e67c7680150342),
    (0xcba6fc42c91a6889, 0x50a15e8d88203623, 0xd405add6327d26ee),
    (0xfe26febd554851db, 0xec9dce8cb6635d94, 0xa64efd8aec97af4b),
    (0x1ebeedb3bfd92390, 0x0d6899463bd2a211, 0xe048d2f4111faba0),
    (0x92b5ac0d254b94db, 0x2eaa5cdad3637db0, 0x05d74fc7fcd21955),
    (0x64195e97b26f0653, 0x103d24d845ef41b9, 0x6977e3d03778dc1c),
    (0x446ad8ec7afaa24a, 0x968f99718223fbe3, 0x702e05c1e29434d2),
    (0x555cb8c13b9895b8, 0x46e9593c028950d0, 0xb6ecedb5ba6b51af),
    (0x0859c989b567bb79, 0x0d71b2b843134741, 0x903f2fd3c2d5ad68),
    (0x94ef4c14ea9eb290, 0x03a7fd842c9975a8, 0x13699576556162b6),
    (0xcba6fc42c91a6889, 0xfbec71db1c29d436, 0xce2d330449f2cbfc),
    (0xaf83dd148bda1ed6, 0x540019d1481d23ce, 0x838ae9e3ae8d0c65),
    (0x91797c57793eeb4c, 0x94408076cacbc89f, 0x8bb3631eda24ecba),
    (0x113c52dadeddb3a4, 0xb8ac88de2f2cf1d8, 0x4b49f367a21afb29),
    (0x93e32dc9ac7f9c75, 0xe1effcc14d44673c, 0x7245fe8ff1739dcf),
    (0x5880b1fcd9f11b84, 0x13da1f8fce8670b0, 0x804541fa1a2bfab3),
    (0x8b3ce14853d05025, 0x600fae18e315af12, 0x590a0d0c884742d5),
    (0xbc1902391b69f9bd, 0x69906dcd6dbfe0b3, 0x560db09ab4b54983),
    (0x0845a76f546522f7, 0xaeb8d9c30b82b9bd, 0xa6cb4027e240cc80),
    (0x43e7bdb480aba278, 0x9ebe96d7a547e979, 0xc3c14a5d108b56a7),
    (0xd3877389973f0d9b, 0xf1f1a68000960b43, 0x49fdd76cb499900d),
    (0x44314c198795a8cc, 0x45661514e20fa505, 0x5527034e490d75f8),
    (0xb177a682f9ed0ab9, 0x4cd1fea2b964db49, 0xf66b2787cf3606a6),
    (0x66a0e8199b078c18, 0x3640a3e404f74652, 0x612beb5623c49b64),
    (0xc6fa721e4fa719cb, 0x502e6868d21f0206, 0x85b2707fe9a475e6),
    (0xff065e89afef5800, 0xce6ebb7bdb32ad32, 0x7a785e564b380bc6),
    (0x83b1775f1976d56c, 0xca04e7f99e06f809, 0xd660ffd33b127d53),
    (0x8d262d14e6755fa7, 0x55326c7d2b4a8b80, 0x85f0fb1f9dea3ce4),
    (0x304760ceb736ee1b, 0xc4c5694d8d78de28, 0xde470a26c88fe6da),
    (0x3bbd786a55cd03fa, 0xfeb42935300a9bfc, 0xded48e1c19de13c5),
    (0x8d262d14e6755fa7, 0xd0c26f91f9ab8ada, 0x54ea94711b036ccb),
    (0x94ef4c14ea9eb290, 0x814eaabe65fba365, 0x82f6c30e430c6c27),
    (0xe4af7ed53c69f8ce, 0xd22810aa21c8ffec, 0xbf5f870068bddb14),
    (0xfd0a73e8a6e113a0, 0xa3bf58433511c8eb, 0xfc090ecb17e1a6b6),
    (0x11ecd7f5869e5d4f, 0x8ef5c82a0b8e13cc, 0xb6800818b895bed1),
    (0xf288fe66c2d196b7, 0x9416f0f88b9c0d1c, 0x34cf29438cd9ad1e),
    (0x677c590293902206, 0xb5168f2dc03234c3, 0x8976429aa1a40e22),
    (0xfcebc20496ea2da1, 0xf9d15d2d95faf13b, 0x3a9fbf3e90c24a94),
    (0x8d262d14e6755fa7, 0x28cba19ff1ab5274, 0xa9d70db861c1a320),
    (0xd6b233de52259200, 0xac5f5ccf4ab1abbe, 0xb42dba5d9548c6f7),
    (0x8d262d14e6755fa7, 0x33c5b792744808a4, 0x19cf745836e16a70),
    (0xee8cec89a6d82bb6, 0x149552f7137281c6, 0xb0de8e16ad5f1d04),
    (0xb654071071d010a7, 0xdab9ae0b40633752, 0x5dccb664cb981e11),
    (0xab499019c1bcce90, 0xa43edb4415052057, 0xbceaa2832df879a9),
    (0x0859c989b567bb79, 0x909a7e7dfb02e76c, 0x45b3982d0f1e482a),
    (0xdd03a2899cda1034, 0x7e461f4634b4eb30, 0x82290ffbbdbf5694),
    (0xd3877389973f0d9b, 0x704f3b68944fafc9, 0x582c58e6e4a92726),
    (0x3bc4681bdd1b81a0, 0xdbf990e54a3c2fa1, 0x3808596b92894c08),
    (0xfffc59706713ac37, 0x0bd20c68bb95cd2f, 0x0939adc39e270cf2),
    (0xcba6fc42c91a6889, 0xb71c0526a99408f2, 0x83a5b979ba8d5924),
    (0xd14bb1453955ac13, 0x3ff80ca452f0ba53, 0x9a44bbfbb1ccd680),
    (0x0d7e7812177d6949, 0x10c6e640da060c75, 0x0261f1905c0c9895),
    (0xd1a6d5095cb4c21e, 0x16421b6cb7fe4923, 0xafa0250883096745),
    (0x1d7deb284cfd1226, 0x36a21d30c3d4c997, 0xd2432c5f876260f2),
    (0xed415b5cc584379b, 0x429aa1f7bb94f644, 0x98210c8d1c3de92c),
    (0xa3807119bd937ba7, 0xea02f3c225261322, 0x201a93779f1d4baa),
    (0xcba6fc42c91a6889, 0xb71c0526a99408f2, 0x75469cd6ece593a6),
    (0x4fd5ea9bb91d445c, 0x2eb714b1e1196830, 0x342d87393a3c96c7),
    (0x0c487f7ff0db888e, 0x47f99100aee6ea01, 0xa850dc29ce066a0e),
    (0x0f8cce4daf22a2d3, 0x5d38fe484cd4f7e1, 0x9900ce3fb76dc305),
    (0x89101e11df075754, 0x1e7affc60d232a4b, 0xed558472222470e6),
    (0x4101a20b638a81a8, 0xf6f5afdda3c814a9, 0x28251899826241c2),
    (0xdd03a2899cda1034, 0x4f50afe608afe087, 0xa2d87f1ef608315e),
    (0x87e9f16462693bbe, 0x5593b05e4d4e82e1, 0x84536f8f7473f76c),
    (0x73acdf94d8498e8e, 0xaa7be4f80ab45f68, 0x4d3add11342aeace),
    (0xee8cec89a6d82bb6, 0xfe1c906ea7f369b3, 0x8cce4eebd4607216),
    (0x94ef4c14ea9eb290, 0x2ded3085d063caf8, 0x8d4e06a4dccde4ec),
    (0x978e7e692c998d97, 0x0146a49b24258fee, 0x007ca1c7938e552c),
    (0x70da121e418745d7, 0x3f3a9d9fe7c346d8, 0x6cc8aa49769c8c5f),
    (0x67821594d52ad154, 0x070f34a75bf1c396, 0x44d0c0ea846d62ab),
    (0x530a0d370294ee0e, 0x25d1103450d1ce54, 0x340fc01aab2f56f7),
    (0xafba35cb9cfd5321, 0x0873ac9cde6f364b, 0xce3b0c37a023c018),
    (0x870a66f066a624ff, 0x1583dab0b1fe2b73, 0xd78364a429a1d38c),
    (0x94ef4c14ea9eb290, 0xd296ac9bcdcc1122, 0x27d3951f4736876e),
    (0x54747619907ecb4e, 0xb65612fafa25d30c, 0x1ddceb14bcf1aa92),
    (0xcc8ea1cb785fed1e, 0x2a619af8eb7103d2, 0xa70aca4cca4c7b23),
    (0x10fc7889ba49f3d2, 0x3cfe18aa381c8d13, 0xa10863808595b583),
    (0xa4f3352c6c250efd, 0x8c6e396c170a5e2a, 0x998604540681b290),
    (0xaf5ea112a8f51f03, 0x9ee7d5820cc6492a, 0x035af2df74c9ec5a),
    (0xc83b70ce8a6d8608, 0x171b3e4a2591624c, 0x3d4b71fb8f62c959),
    (0xe4d2804ac13d63ac, 0xd77c514ab09829a5, 0xf0e21b28094d3141),
    (0x0a55f6865d671e76, 0xc8600e7e9d883d82, 0x499e5a0a533d4228),
    (0xb25f1a7c7eb779f7, 0x670209cbeb20ba35, 0xe5350e45b6dd820d),
    (0xee8cec89a6d82bb6, 0xb4e66b80dbba7f99, 0x0e7dd7de1166eb44),
    (0xba3b4e35e533b35d, 0xad88d82a981fd7ac, 0xc0cc628e9bd3f019),
    (0xab3348de3975479b, 0x9699e714088457f8, 0x39c994a550ee8ba1),
    (0x54747619907ecb4e, 0x1fc95d572a023569, 0xc30ec861de135073),
    (0xecfd29f31ab50f43, 0x4b4d347f4dce652d, 0x93078439e566d812),
    (0xda2366d55ce84530, 0x07ffded0f4dfd52d, 0xdb7353bb7c5276da),
    (0xa83144897eb154be, 0xde55879adf2f401e, 0x1c67a5768430d1bd),
    (0x9bfb04bc9f9c683b, 0xb8b2d69239370a2e, 0x7e97c8a26f5f5a81),
    (0x66a0e8199b078c18, 0xeb396f98bbf2f071, 0xc6d2e703241ab382),
    (0xab499019c1bcce90, 0x9b764ba93d326320, 0xf8be0635086e0b48),
    (0x88685bfefd1a9cca, 0xfb105c8148848670, 0xad6ec1bcd90928eb),
    (0x94ef4c14ea9eb290, 0x5d97e80e01126599, 0xd9c399aec5a14462),
    (0xcd402798f404f68b, 0xaa0497d5f066d423, 0xed89b3fa8d2efdaa),
    (0xf13a89d8274c595a, 0xf34af7e86c20b1c3, 0xa17f8e7d0c573a8a),
    (0x74a06c716f039750, 0xdd6311fa0e2ad77f, 0xb4bfd0bb9b66ff1e),
    (0x3c5eb7e131a35c38, 0xe223d7d09a607c11, 0x18417e228632d191),
    (0xc31512904cf0fe2b, 0x9ce717fa16d873ae, 0x2e80922661198697),
    (0x419fef6cb3937efb, 0x695a5ca22d3f743f, 0xd3c7cc471e01837c),
    (0xbed8aa912e3e9606, 0x2c825664f58e26f1, 0x1233f4b65d68c8d5),
    (0x44314c198795a8cc, 0x49ffa116b69e4ccf, 0x3813016abedb5d6c),
    (0xb03ebdab359d9709, 0x6d538eabf31906b5, 0x5b4c077b00c768b0),
    (0x09b74e3523f609b4, 0xdb5bf19339f94bd2, 0xd10238b754c888d6),
    (0x08664f3c57883211, 0xf485d432efcd94f9, 0x3aea0e4c490d16e9),
    (0xd4a1ff7ccc978728, 0xe60ee525e3d61a5d, 0x6a669e3c82f40e10),
    (0xed1e5961028279bb, 0x9696feb7e338e732, 0x7b7f90bf98f0112d),
    (0xfe60606126e5a87c, 0x3b153e14f4fb607a, 0xe5279de726cd3b8c),
    (0x48e97ebba246ccb9, 0x82c10d96049f6d13, 0x1eda554deba04765),
    (0x7d7ac1cc755c5414, 0xd74d189f0fcc3df8, 0x012c8b4c100dd1da),
    (0x843a0cf3fd9f4007, 0xd161d8b865bb83a4, 0xd865b4080a19ae99),
    (0x94ef4c14ea9eb290, 0x2783b922640b8c36, 0x24f8d8e5a2cc8f8b),
    (0x0859c989b567bb79, 0x6cd9b5a998e67493, 0x85d50a81e8b79a12),
    (0xedde40138940377b, 0x5575aa4d7a1da734, 0xd808c7c9a0875898),
    (0xdd03a2899cda1034, 0x9276dc7a0703e8e2, 0x37bc585e5ebf2a1e),
    (0x20a8b930b089adef, 0xf1104c98cfe27e73, 0x4799cce43d2fc51d),
    (0x1ae166a40a8ef63f, 0xf634d5c7be16b3bf, 0xaf3253093635ecf0),
    (0x0e716d4690ef2458, 0xe0a6b63382740cad, 0x49833b6b303401c6),
    (0x278dab3df129c8cb, 0x22352ba5074b6c43, 0xa815c57fea438eb2),
    (0x8d262d14e6755fa7, 0x97780ba9a9331bb8, 0xe6226fa060d09ad5),
    (0x08c08117abdbf2da, 0xa875666a9ec06c60, 0x9a0dfa3a182e8e8b),
    (0xff1cd0277da34796, 0x94035711cad226d6, 0x5d9065c77f7fa636),
    (0x83c0abc21c94cb48, 0x073e7462b446f1be, 0x4a2d39e2b21830c4),
    (0xe79e56ea5ae0c16e, 0x0c80c92e2b1b54f1, 0x42b772ea8083f7b7),
    (0xf13e8f1e532d93e8, 0x7d84955fa2ace824, 0xd046d8e503cff747),
    (0x1510d5a825a761e1, 0x28c696ad5af70920, 0xa15e450ed7aac5bc),
    (0x46871ee31a229d18, 0xd7a4cdf1c846f494, 0x9bb07d4d17ebeafe),
    (0xb3fa0a4321788b7e, 0x7465071df58ca1f8, 0xcc21113618d6b17f),
    (0xf6ea110c08055ca0, 0x91a6e30916127b2f, 0xe6a9bbe38a731ca5),
    (0x93d4f7937e499081, 0x319da8958a343a8d, 0x6ebf95a8ec2610e0),
    (0x34f299fd329d003d, 0x7ab070deded5178d, 0xa52f1f7d1ff83f6b),
    (0xcba6fc42c91a6889, 0xfbec71db1c29d436, 0xd0a5bf00db070527),
    (0xcba6fc42c91a6889, 0x0636ed27a4b1d448, 0x20d46958b4e1c550),
    (0x772f6269dd5e4bb1, 0x8cc6edf285e4fa0a, 0xfba8d26d8360c9bf),
    (0x8dc1c171bf1be33d, 0xcad69ea65acabbfb, 0x21975c48438986a3),
    (0xa238cb79e2bbc632, 0x94d0d47f572e74b2, 0x709503e2bc590f98),
    (0x66a0e8199b078c18, 0x7613e82e3968d98b, 0x39f5e22b41032b5d),
    (0x8b3ce14853d05025, 0x45f1510ca5997e70, 0xdc4757e606f47271),
    (0x023c0e1e8cbbb73d, 0xa7bd5c0856cb0d43, 0x0c00e4dd24ae4f6f),
    (0x216f7be35280c79a, 0x500053d594bc1b65, 0x28d32d77e6abe369),
    (0x94ef4c14ea9eb290, 0xb5854aed55114f17, 0x79345c0151915d64),
    (0x4ce197198c837495, 0x1482fa658895c155, 0xa43a64460727e879),
    (0x530a0d370294ee0e, 0x127f2239013b466a, 0x8706d4f7b4572970),
    (0x4728351f69a3dbb9, 0x060f2678426b0f71, 0xbe4c9905e8e0e193),
    (0x6b0b5d0d1aa0d978, 0x74b4f7830ccf27e6, 0x7cd1000f832e0dde),
    (0x48ed3848160df659, 0xbe77b8453e735267, 0x0095d578f752b0e7),
    (0xd772fded7f955d95, 0x2a94e963c102efbb, 0x0080003d1bbb722b),
    (0x7d7ac1cc755c5414, 0xa2040f53e3f6e1f7, 0x1e09ed1cab095a15),
    (0x2cde911c0cf85567, 0xb5bd6cb190f37732, 0xfb5a7b587e66e5d5),
    (0x3e1bca8a226daa07, 0x5d8ae5331a5482e2, 0xdaa6cc6c6ef7c89e),
    (0x66a0e8199b078c18, 0x54048983ac41b020, 0x251c5cae62e2a057),
    (0xe5b3ed89a1c7dbfd, 0xcb9415a3955d9237, 0x0f41b178096958fa),
    (0x66a0e8199b078c18, 0x34649f8ef2d6579d, 0xbae19e43021256be),
    (0x782a4219a505c2ca, 0xa8fc0a83f2ca38dd, 0x90ef35696d123131),
    (0x61018c178c6e464d, 0x57cd88658a3c7925, 0xb709e5abb3f48e0b),
    (0x7ba5f15225509c58, 0x334ca1e5f306cc90, 0xd3f69e369d1ed54e),
    (0x3ab51d1981faa633, 0x4c5ab3cb551b2b3c, 0x06f663af85128edd),
    (0xa83144897eb154be, 0xb4a37ee5f39b7f31, 0x5ca1c0335b82490d),
    (0xee8cec89a6d82bb6, 0xb4e66b80dbba7f99, 0x9d286fd839a80bba),
    (0x591b03cc91004a6f, 0x643797b141f920cd, 0xfb8fb179721ab693),
    (0xa1b0d724b19f9697, 0xc20bd8ed90a7f33c, 0x40dbc956d4e5230c),
    (0x112ca107431cd6c4, 0x85ecf55ee792302a, 0x5791bba77f7d8928),
    (0xf5b35d4fb7023e62, 0x85995be8d7fe7376, 0xd2978a3a578ced53),
    (0xf663bf89ab0d3ad7, 0x760bc0f255003f6d, 0xd894b85a4d006ad2),
    (0x417c697f886cc02c, 0xe35038b19d60fb7f, 0x7f4f660aa00578b3),
    (0x2fb6eef448313ae4, 0x9eab6bb1e870ba3f, 0x0c3f806f8c26c12f),
    (0x1e39e4593e71e7f8, 0x0b9cb6c7eeee526a, 0xcec25ba44b4759a4),
    (0x66a0e8199b078c18, 0x1ad8f465dc566bec, 0x591d186ea34bec00),
    (0xe6a780052c8fabf4, 0xc7b8e1ccd97a81f5, 0x6c3a58f611696c11),
    (0x8b7f307bad30cdd8, 0x7f39b237f298062b, 0x2eef529ff48f7cad),
    (0xbdbc03534000a8e6, 0x6c0ebe67e9c66d47, 0x335d5da493a03639),
    (0xab499019c1bcce90, 0xd02d4ddf511d3b0f, 0xefa2972216599f4e),
    (0xcba6fc42c91a6889, 0xb71c0526a99408f2, 0xc02ec4a3595305c8),
    (0x6cf2ef7e3c54a4c6, 0x24a1994a3a0b46d5, 0x408b0f9584624dcc),
    (0x142258463f5b7198, 0x70147855d579288d, 0x8f53e153073ef587),
    (0xf543ccafc4e701cf, 0x36837cd1e0dd6a5a, 0x3caa2cc855febac1),
    (0x89dbb43c08ff6e13, 0x0e37074ddfa8a192, 0x1be4981721ed6e9d),
    (0x0e1321a45c8137f1, 0x52932ff2784ba176, 0xa4bbc9fdfa89a438),
];
