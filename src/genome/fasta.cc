#include "genome/fasta.h"

#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "genome/fastx_stream.h"

namespace seedex {

// The slurp conveniences are thin collectors over the streaming readers
// (fastx_stream.h), so validation — blank-line handling in every record
// slot, empty/duplicate contig names, record-indexed error messages —
// lives in exactly one parser.

std::vector<FastaRecord>
readFasta(std::istream &in)
{
    std::vector<FastaRecord> records;
    FastaReader reader(in);
    FastaRecord rec;
    while (reader.next(rec))
        records.push_back(std::move(rec));
    return records;
}

std::vector<FastqRecord>
readFastq(std::istream &in)
{
    std::vector<FastqRecord> records;
    FastqReader reader(in);
    FastqRecord rec;
    while (reader.next(rec))
        records.push_back(std::move(rec));
    return records;
}

void
writeFasta(std::ostream &out, const std::vector<FastaRecord> &records)
{
    constexpr size_t width = 70;
    for (const auto &rec : records) {
        out << '>' << rec.name << '\n';
        const std::string text = rec.seq.toString();
        for (size_t i = 0; i < text.size(); i += width)
            out << text.substr(i, width) << '\n';
    }
}

void
writeFastq(std::ostream &out, const std::vector<FastqRecord> &records)
{
    for (const auto &rec : records) {
        out << '@' << rec.name << '\n'
            << rec.seq.toString() << '\n'
            << "+\n"
            << rec.qual << '\n';
    }
}

std::vector<FastaRecord>
readFastaFile(const std::string &path)
{
    std::vector<FastaRecord> records;
    FastaReader reader(path);
    FastaRecord rec;
    while (reader.next(rec))
        records.push_back(std::move(rec));
    return records;
}

std::vector<FastqRecord>
readFastqFile(const std::string &path)
{
    std::vector<FastqRecord> records;
    FastqReader reader(path);
    FastqRecord rec;
    while (reader.next(rec))
        records.push_back(std::move(rec));
    return records;
}

void
writeFastaFile(const std::string &path,
               const std::vector<FastaRecord> &records)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open FASTA file: " + path);
    writeFasta(out, records);
    if (!out.flush())
        throw std::runtime_error(path + ": write failed");
}

void
writeFastqFile(const std::string &path,
               const std::vector<FastqRecord> &records)
{
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot open FASTQ file: " + path);
    writeFastq(out, records);
    if (!out.flush())
        throw std::runtime_error(path + ": write failed");
}

} // namespace seedex
