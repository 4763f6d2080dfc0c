//! Property tests for the MapReduce substrate: codec round-trips, dataset
//! integrity across arbitrary split sizes, and a full MapReduce word count
//! checked against an in-memory oracle (with and without combiner, across
//! reducer counts).

use rapida_testkit::prelude::*;
use rapida_mapred::codec::{
    read_bytes, read_f64, read_u64_list, read_varint, write_bytes, write_f64, write_u64_list,
    write_varint, BlockBuilder, RecordIter,
};
use rapida_mapred::{
    DatasetWriter, Engine, FnMapFactory, FnReduceFactory, InputSrc, JobBuilder, MapOutput,
    MapTask, ReduceOutput, ReduceTask, SimDfs,
};
use std::collections::HashMap;
use std::sync::Arc;

proptest! {
    #[test]
    fn varint_roundtrip(v in any::<u64>()) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        let mut s = buf.as_slice();
        prop_assert_eq!(read_varint(&mut s), Some(v));
        prop_assert!(s.is_empty());
    }

    #[test]
    fn mixed_codec_roundtrip(
        v in any::<u64>(),
        f in any::<f64>(),
        bytes in proptest::collection::vec(any::<u8>(), 0..64),
        list in proptest::collection::vec(any::<u64>(), 0..16),
    ) {
        let mut buf = Vec::new();
        write_varint(&mut buf, v);
        write_f64(&mut buf, f);
        write_bytes(&mut buf, &bytes);
        write_u64_list(&mut buf, &list);
        let mut s = buf.as_slice();
        prop_assert_eq!(read_varint(&mut s), Some(v));
        let back = read_f64(&mut s).unwrap();
        prop_assert!(back == f || (back.is_nan() && f.is_nan()));
        prop_assert_eq!(read_bytes(&mut s), Some(bytes.as_slice()));
        prop_assert_eq!(read_u64_list(&mut s), Some(list));
        prop_assert!(s.is_empty());
    }

    #[test]
    fn block_preserves_records(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..32), 0..40)
    ) {
        let mut b = BlockBuilder::new();
        for r in &records {
            b.push(r);
        }
        let block = b.finish();
        let back: Vec<Vec<u8>> = RecordIter::new(&block).map(|r| r.to_vec()).collect();
        prop_assert_eq!(back, records);
    }

    #[test]
    fn dataset_writer_preserves_records_across_split_sizes(
        records in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..24), 0..60),
        split in 1usize..256,
    ) {
        let mut w = DatasetWriter::new(split);
        for r in &records {
            w.push(r);
        }
        let ds = w.finish();
        prop_assert_eq!(ds.records, records.len());
        let back: Vec<Vec<u8>> = ds.iter_records().map(|r| r.to_vec()).collect();
        prop_assert_eq!(back, records);
    }
}

struct WcMap;
impl MapTask for WcMap {
    fn map(&mut self, _src: InputSrc, record: &[u8], out: &mut MapOutput) {
        out.emit(record, &[1u8, 0, 0, 0]);
    }
}

struct SumTask {
    to_output: bool,
}
impl ReduceTask for SumTask {
    fn reduce(&mut self, key: &[u8], values: &[&[u8]], out: &mut ReduceOutput) {
        let total: u32 = values
            .iter()
            .map(|v| {
                let mut b = [0u8; 4];
                b.copy_from_slice(v);
                u32::from_le_bytes(b)
            })
            .sum();
        if self.to_output {
            let mut rec = key.to_vec();
            rec.push(0);
            rec.extend_from_slice(&total.to_le_bytes());
            out.write(&rec);
        } else {
            out.emit(key, &total.to_le_bytes());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 32, ..ProptestConfig::default() })]

    /// MapReduce word count == in-memory histogram, for any word multiset,
    /// reducer count, split size, and combiner setting.
    #[test]
    fn wordcount_matches_oracle(
        words in proptest::collection::vec("[a-d]{1,3}", 0..80),
        reducers in 1usize..7,
        split in 4usize..64,
        with_combiner in any::<bool>(),
    ) {
        let mut oracle: HashMap<String, u32> = HashMap::new();
        for w in &words {
            *oracle.entry(w.clone()).or_default() += 1;
        }

        let dfs = SimDfs::new();
        let mut w = DatasetWriter::new(split);
        for word in &words {
            w.push(word.as_bytes());
        }
        dfs.put("in", w.finish());
        let mut builder = JobBuilder::new("wc")
            .input("in")
            .mapper(Arc::new(FnMapFactory(|| WcMap)))
            .reducer(Arc::new(FnReduceFactory(|| SumTask { to_output: true })))
            .output("out")
            .num_reducers(reducers);
        if with_combiner {
            builder = builder.combiner(Arc::new(FnReduceFactory(|| SumTask { to_output: false })));
        }
        let metrics = Engine::pinned(dfs.clone()).run_job(&builder.build());
        prop_assert_eq!(metrics.input_records as usize, words.len());

        let mut got: HashMap<String, u32> = HashMap::new();
        for rec in dfs.peek("out").unwrap().iter_records() {
            let sep = rec.iter().position(|&b| b == 0).unwrap();
            let word = String::from_utf8(rec[..sep].to_vec()).unwrap();
            let mut b = [0u8; 4];
            b.copy_from_slice(&rec[sep + 1..]);
            got.insert(word, u32::from_le_bytes(b));
        }
        prop_assert_eq!(got, oracle);
    }
}
